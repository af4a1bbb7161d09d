// Package datagen synthesizes spatial data with the statistical shape
// of the TIGER/Line 97 extracts used in the paper (Section 5.3): "road"
// features — millions of short, thin, axis-leaning segments clustered
// around populated places — and "hydro" features — fewer, larger,
// spatially correlated rectangles from rivers and lakes.
//
// The real TIGER CD-ROMs are unavailable here, so the generators
// reproduce the properties the paper's conclusions rest on:
//
//   - heavy spatial clustering (cities/metro areas) shared between the
//     road and hydro relations, so joins produce output of the same
//     order as the road count, as in Table 2;
//   - small individual extents relative to the universe, so the
//     square-root rule holds and sweep structures stay tiny (Table 3);
//   - deterministic generation from a seed, so every experiment is
//     reproducible.
//
// A Terrain is a seeded mixture of population clusters over a region;
// both feature classes sample locations from the same terrain, which is
// what makes them spatially correlated.
package datagen

import (
	"math"
	"math/rand"

	"unijoin/internal/geom"
)

// Terrain is a population model: Gaussian clusters (cities) over a
// region plus a uniform rural background. Roads and hydro generated
// from the same terrain cluster in the same places.
type Terrain struct {
	region   geom.Rect
	centers  []geom.Point
	sigmas   []float64
	weights  []float64 // cumulative, normalized
	ruralPct float64   // fraction of samples drawn uniformly
}

// NewTerrain builds a terrain with the given number of clusters,
// deterministically from the seed.
func NewTerrain(seed int64, region geom.Rect, clusters int) *Terrain {
	if clusters < 1 {
		clusters = 1
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Terrain{region: region, ruralPct: 0.15}
	raw := make([]float64, clusters)
	var sum float64
	minDim := math.Min(float64(region.Width()), float64(region.Height()))
	for i := 0; i < clusters; i++ {
		t.centers = append(t.centers, geom.Point{
			X: region.XLo + geom.Coord(rng.Float64())*region.Width(),
			Y: region.YLo + geom.Coord(rng.Float64())*region.Height(),
		})
		// City sizes follow a heavy-tailed (Zipf-like) weight profile.
		w := 1.0 / float64(i+1)
		raw[i] = w
		sum += w
		t.sigmas = append(t.sigmas, minDim*(0.01+0.04*rng.Float64()))
	}
	cum := 0.0
	for i := range raw {
		cum += raw[i] / sum
		t.weights = append(t.weights, cum)
	}
	return t
}

// Region returns the terrain's region.
func (t *Terrain) Region() geom.Rect { return t.region }

// Sample draws one location: usually near a cluster center, sometimes
// uniform rural background, always clamped inside the region.
func (t *Terrain) Sample(rng *rand.Rand) geom.Point {
	if rng.Float64() < t.ruralPct {
		return geom.Point{
			X: t.region.XLo + geom.Coord(rng.Float64())*t.region.Width(),
			Y: t.region.YLo + geom.Coord(rng.Float64())*t.region.Height(),
		}
	}
	u := rng.Float64()
	k := 0
	for k < len(t.weights)-1 && t.weights[k] < u {
		k++
	}
	p := geom.Point{
		X: t.centers[k].X + geom.Coord(rng.NormFloat64()*t.sigmas[k]),
		Y: t.centers[k].Y + geom.Coord(rng.NormFloat64()*t.sigmas[k]),
	}
	return t.clamp(p)
}

func (t *Terrain) clamp(p geom.Point) geom.Point {
	if p.X < t.region.XLo {
		p.X = t.region.XLo
	}
	if p.X > t.region.XHi {
		p.X = t.region.XHi
	}
	if p.Y < t.region.YLo {
		p.Y = t.region.YLo
	}
	if p.Y > t.region.YHi {
		p.Y = t.region.YHi
	}
	return p
}

// RoadParams tunes road generation. Zero values take defaults.
type RoadParams struct {
	// MeanLen is the mean segment length as a fraction of the smaller
	// region dimension. Default 0.004 (city blocks at country scale).
	MeanLen float64
	// Thickness is the cross-axis extent as a fraction of MeanLen.
	// Default 0.05: TIGER road MBRs are nearly degenerate.
	Thickness float64
}

// Roads generates n road-segment MBRs over the terrain: thin,
// axis-leaning rectangles (streets mostly run along the grid) whose
// density follows the population clusters. IDs are 0..n-1.
func Roads(t *Terrain, seed int64, n int, p RoadParams) []geom.Record {
	if p.MeanLen == 0 {
		p.MeanLen = 0.004
	}
	if p.Thickness == 0 {
		p.Thickness = 0.05
	}
	rng := rand.New(rand.NewSource(seed))
	minDim := math.Min(float64(t.region.Width()), float64(t.region.Height()))
	meanLen := p.MeanLen * minDim
	recs := make([]geom.Record, n)
	for i := 0; i < n; i++ {
		c := t.Sample(rng)
		length := rng.ExpFloat64() * meanLen
		if length > 20*meanLen {
			length = 20 * meanLen
		}
		thick := length * p.Thickness
		// Streets follow the grid with occasional diagonals.
		var w, h float64
		switch rng.Intn(5) {
		case 0, 1: // east-west
			w, h = length, thick
		case 2, 3: // north-south
			w, h = thick, length
		default: // diagonal-ish
			w = length * (0.3 + 0.7*rng.Float64())
			h = length * (0.3 + 0.7*rng.Float64())
		}
		recs[i] = geom.Record{
			Rect: geom.NewRect(c.X, c.Y, c.X+geom.Coord(w), c.Y+geom.Coord(h)),
			ID:   uint32(i),
		}
	}
	return recs
}

// HydroParams tunes hydro generation. Zero values take defaults.
type HydroParams struct {
	// RiverFrac is the fraction of features that are river segments
	// (elongated chains); the rest are lakes. Default 0.7.
	RiverFrac float64
	// MeanSize is the mean lake extent as a fraction of the smaller
	// region dimension. Default 0.008 (hydro features are larger than
	// road segments).
	MeanSize float64
}

// Hydro generates n hydrographic MBRs over the terrain: river segment
// chains near population (settlements grew on rivers) and scattered
// lakes. IDs are 0..n-1.
func Hydro(t *Terrain, seed int64, n int, p HydroParams) []geom.Record {
	if p.RiverFrac == 0 {
		p.RiverFrac = 0.7
	}
	if p.MeanSize == 0 {
		p.MeanSize = 0.008
	}
	rng := rand.New(rand.NewSource(seed))
	minDim := math.Min(float64(t.region.Width()), float64(t.region.Height()))
	mean := p.MeanSize * minDim
	recs := make([]geom.Record, 0, n)
	id := uint32(0)
	for len(recs) < n {
		c := t.Sample(rng)
		if rng.Float64() < p.RiverFrac {
			// A river: a random walk of elongated segment MBRs.
			segs := 3 + rng.Intn(10)
			x, y := float64(c.X), float64(c.Y)
			dirX := rng.NormFloat64()
			dirY := rng.NormFloat64()
			norm := math.Hypot(dirX, dirY)
			if norm == 0 {
				dirX, dirY, norm = 1, 0, 1
			}
			dirX, dirY = dirX/norm, dirY/norm
			for s := 0; s < segs && len(recs) < n; s++ {
				segLen := (0.5 + rng.Float64()) * mean * 2
				nx := x + dirX*segLen
				ny := y + dirY*segLen
				recs = append(recs, geom.Record{
					Rect: geom.NewRect(geom.Coord(x), geom.Coord(y), geom.Coord(nx), geom.Coord(ny)),
					ID:   id,
				})
				id++
				x, y = nx, ny
				// Meander.
				dirX += rng.NormFloat64() * 0.3
				dirY += rng.NormFloat64() * 0.3
				norm = math.Hypot(dirX, dirY)
				if norm == 0 {
					norm = 1
				}
				dirX, dirY = dirX/norm, dirY/norm
			}
		} else {
			// A lake: a squarish blob.
			w := rng.ExpFloat64() * mean
			h := w * (0.5 + rng.Float64())
			recs = append(recs, geom.Record{
				Rect: geom.NewRect(c.X, c.Y, c.X+geom.Coord(w), c.Y+geom.Coord(h)),
				ID:   id,
			})
			id++
		}
	}
	return recs
}

// Uniform generates n rectangles uniformly over region with extents up
// to maxExt, a synthetic baseline workload for tests and ablations.
func Uniform(seed int64, n int, region geom.Rect, maxExt float64) []geom.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]geom.Record, n)
	for i := range recs {
		x := float64(region.XLo) + rng.Float64()*float64(region.Width())
		y := float64(region.YLo) + rng.Float64()*float64(region.Height())
		recs[i] = geom.Record{
			Rect: geom.NewRect(geom.Coord(x), geom.Coord(y),
				geom.Coord(x+rng.Float64()*maxExt), geom.Coord(y+rng.Float64()*maxExt)),
			ID: uint32(i),
		}
	}
	return recs
}

// Tall generates n narrow rectangles, each 0.01–0.05% of the region
// wide and 40% of it high, uniformly placed — the adversarial input
// of a sweep along y: every record's y-interval overlaps most of the
// other input's, so a plane sweep's active set is most of the data
// and only the x-dimension can tell candidates apart.
func Tall(seed int64, n int, region geom.Rect) []geom.Record {
	rng := rand.New(rand.NewSource(seed))
	w, h := float64(region.Width()), float64(region.Height())
	recs := make([]geom.Record, n)
	for i := range recs {
		x := float64(region.XLo) + rng.Float64()*w
		y := float64(region.YLo) + rng.Float64()*h/2
		recs[i] = geom.Record{
			Rect: geom.NewRect(geom.Coord(x), geom.Coord(y),
				geom.Coord(x+w*(1+4*rng.Float64())/10_000), geom.Coord(y+0.4*h)),
			ID: uint32(i),
		}
	}
	return recs
}
