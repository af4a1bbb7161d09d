// Multiway: the Section 4 extension — a 3-way intersection join,
// feeding the output of one PQ join directly into another, run under a
// context like every other query.
//
// Scenario: find every (road, water, wetland-zone) triple with a common
// intersection — candidate bridge sites needing environmental review.
package main

import (
	"context"
	"fmt"
	"log"

	"unijoin"
	"unijoin/internal/datagen"
)

func main() {
	ctx := context.Background()
	universe := unijoin.NewRect(0, 0, 1000, 1000)
	terrain := datagen.NewTerrain(3, universe, 15)

	roads := datagen.Roads(terrain, 21, 12000, datagen.RoadParams{})
	hydro := datagen.Hydro(terrain, 22, 3000, datagen.HydroParams{})
	// Wetland review zones: larger, scattered boxes.
	zones := datagen.Uniform(23, 400, universe, 60)

	ws := unijoin.NewWorkspace()
	ws.SetUniverse(universe)
	r, err := ws.AddNamedRelation("roads", roads)
	if err != nil {
		log.Fatal(err)
	}
	h, err := ws.AddNamedRelation("hydro", hydro)
	if err != nil {
		log.Fatal(err)
	}
	z, err := ws.AddNamedRelation("zones", zones)
	if err != nil {
		log.Fatal(err)
	}
	// Mixed representations: roads indexed, the others not. The
	// pipeline handles any combination.
	if err := r.BuildIndex(); err != nil {
		log.Fatal(err)
	}

	var shown int
	res, err := ws.MultiwayJoin(ctx, []*unijoin.Relation{r, h, z}, func(ids []unijoin.ID) {
		if shown < 5 {
			fmt.Printf("  road %d x water %d x zone %d\n", ids[0], ids[1], ids[2])
			shown++
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ... and %d more\n\n", res.Tuples-int64(shown))

	fmt.Printf("3-way intersections: %d\n", res.Tuples)
	for i, n := range res.Intermediate {
		fmt.Printf("after stage %d: %d tuples\n", i+1, n)
	}
	fmt.Println("\nEach pairwise stage emits its output already sorted by the")
	fmt.Println("intersection's lower y, so it streams straight into the next")
	fmt.Println("plane sweep with no intermediate sort (Section 4 of the paper).")
}
