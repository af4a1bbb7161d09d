package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/shard"
	"unijoin/internal/tiger"
)

// Every input comes from the benchmark seed and reaches the programs
// only as record files, stripe intervals and HTTP requests — never as
// a seed — so a later PR cannot special-case the generator.

// Sizing, chosen so every workload answers ≥ 200 primary ops in one
// measured round on a 2-core box (see README "Sizing").
const (
	tigerSet   = "NJ"
	tigerScale = 0.25 // NJ.roads 103,610 × NJ.hydro 12,713, ≈ 120 k pairs

	uniformLeft   = 16_000 // relation a
	uniformRight  = 12_000 // relation b; ≈ 76 k pairs with extent ≤ 20 on 1000²
	uniformExtent = 20

	fleetShards = 3

	// 14 × 256 records/s is the slowest schedule that still makes each
	// of three shards cross its 4096-record compaction threshold twice
	// within a 9 s round; faster schedules only starve the joins.
	appendBatch  = 256 // records per append
	appendPerSec = 14  // paced appends per second

	// windowShare is the window's side as a share of the region's. At
	// 0.5 % a window holds ≈ 60 records on average (median ≈ 10, p99 ≈
	// 500: the data is clustered), so per-request overhead, not stream
	// volume, is what the workload times.
	windowShare = 0.005
)

// terrainSeed fixes the geography of the TIGER-like data: where the
// population clusters sit and how tight they are. Roads and rivers
// are then drawn from the benchmark seed. With the clusters drawn
// from the seed too, pair counts swing 3.6× between seeds and the
// same code would time differently for a reason no one changed;
// with the geography fixed they stay within ±5 %.
const terrainSeed = 1997

// uniformUniverse is the 1000² square the uniform relations cover.
var uniformUniverse = geom.NewRect(0, 0, 1000, 1000)

// relation is one named input: its records and the file sjserved
// loads them from.
type relation struct {
	Name string
	Recs []geom.Record
	Path string
}

// dataset is one generated pair of relations plus everything derived
// from it once at generation time: the stripe plan a fleet is started
// with and the reference answers the load loop checks against.
type dataset struct {
	Universe    geom.Rect
	Left, Right relation
	// Bounds are the internal stripe boundaries of the 3-shard plan
	// over both relations; Stripes are the matching -stripe flags.
	Bounds  []geom.Coord
	Stripes []string
	// Join is the reference answer of Left ⋈ Right.
	Join joinRef
}

// region formats the universe for sjserved -region.
func (d *dataset) region() string {
	u := d.Universe
	return fmt.Sprintf("%g,%g,%g,%g", u.XLo, u.YLo, u.XHi, u.YHi)
}

// loads returns the -load arguments for both relations.
func (d *dataset) loads() []string {
	return []string{d.Left.Name + "=" + d.Left.Path, d.Right.Name + "=" + d.Right.Path}
}

// newDataset plans the stripes, computes the reference join and
// writes both relations under dir.
func newDataset(dir string, universe geom.Rect, left, right relation) (*dataset, error) {
	d := &dataset{Universe: universe, Left: left, Right: right}
	plan := shard.NewPlan(universe, fleetShards, left.Recs, right.Recs)
	if plan.Shards() != fleetShards {
		return nil, fmt.Errorf("stripe plan over %s+%s resolved %d shards, want %d",
			left.Name, right.Name, plan.Shards(), fleetShards)
	}
	d.Bounds = plan.Boundaries()
	for i := 0; i < plan.Shards(); i++ {
		d.Stripes = append(d.Stripes, plan.Interval(i).String())
	}
	d.Join = referenceJoin(left.Recs, right.Recs)
	for _, rel := range []*relation{&d.Left, &d.Right} {
		rel.Path = filepath.Join(dir, rel.Name+".bin")
		if err := writeRecordFile(rel.Path, rel.Recs); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// tigerDataset generates the TIGER-like NJ roads and hydrography: the
// paper's clustered, sparse-output regime.
func tigerDataset(dir string, seed int64) (*dataset, error) {
	spec, err := tiger.SpecByName(tigerSet)
	if err != nil {
		return nil, err
	}
	// The composition tiger.Config.Generate uses, with the terrain
	// taken from terrainSeed instead of the data seed.
	terrain := datagen.NewTerrain(terrainSeed, spec.Region, 40)
	nRoads, nHydro := tiger.Config{Scale: tigerScale}.Counts(spec)
	extent := spec.ExtentCal * math.Sqrt(0.002/tigerScale)
	roads := datagen.Roads(terrain, seed+1, nRoads, datagen.RoadParams{MeanLen: 0.004 * extent})
	hydro := datagen.Hydro(terrain, seed+2, nHydro, datagen.HydroParams{MeanSize: 0.008 * extent})
	return newDataset(dir, spec.Region,
		relation{Name: tigerSet + ".roads", Recs: roads},
		relation{Name: tigerSet + ".hydro", Recs: hydro})
}

// uniformDataset generates the dense-output uniform relations a and b.
func uniformDataset(dir string, seed int64) (*dataset, error) {
	return newDataset(dir, uniformUniverse,
		relation{Name: "a", Recs: datagen.Uniform(seed, uniformLeft, uniformUniverse, uniformExtent)},
		relation{Name: "b", Recs: datagen.Uniform(seed+1, uniformRight, uniformUniverse, uniformExtent)})
}

// appendBatches generates n append batches for relation a of d. IDs
// continue densely from len(a) — the sjgen -idbase convention; sparse
// IDs would flip the shards onto their map-backed ownership tables.
func appendBatches(d *dataset, seed int64, n int) [][]geom.Record {
	recs := datagen.Uniform(seed+2, n*appendBatch, d.Universe, uniformExtent)
	base := uint32(len(d.Left.Recs))
	batches := make([][]geom.Record, n)
	for i := range recs {
		recs[i].ID += base
	}
	for k := range batches {
		batches[k] = recs[k*appendBatch : (k+1)*appendBatch]
	}
	return batches
}

// wireRect converts a rectangle to its request/response form. The
// float32 → float64 widening is exact, so the servers see the very
// coordinates the reference computed with.
func wireRect(r geom.Rect) client.Rect {
	return client.Rect{XLo: float64(r.XLo), YLo: float64(r.YLo), XHi: float64(r.XHi), YHi: float64(r.YHi)}
}

// appendBodies converts the append batches to the request bodies the
// appender sends, once per run rather than inside every round's
// timed set-up.
func appendBodies(batches [][]geom.Record) [][]client.RecordIn {
	bodies := make([][]client.RecordIn, len(batches))
	for k, b := range batches {
		bodies[k] = make([]client.RecordIn, len(b))
		for i, r := range b {
			bodies[k][i] = client.RecordIn{ID: r.ID, Rect: wireRect(r.Rect)}
		}
	}
	return bodies
}

// newWindowRNG seeds the window-centre sequence of one client.
func newWindowRNG(seed int64, clientIdx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(clientIdx)))
}

// windowAround returns the query window centred on rec: windowShare of
// the universe on each side, so queries follow the data.
func windowAround(u geom.Rect, rec geom.Record) geom.Rect {
	c := rec.Rect.Center()
	hw, hh := u.Width()*windowShare/2, u.Height()*windowShare/2
	return geom.NewRect(c.X-hw, c.Y-hh, c.X+hw, c.Y+hh)
}

// writeRecordFile writes recs in the 20-byte layout sjserved -load
// reads (the sjgen format).
func writeRecordFile(path string, recs []geom.Record) error {
	buf := make([]byte, len(recs)*geom.RecordSize)
	for i, r := range recs {
		geom.EncodeRecord(buf[i*geom.RecordSize:], r)
	}
	return os.WriteFile(path, buf, 0o644)
}
