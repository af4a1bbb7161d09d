// Costplan: the Section 6.3 cost model in action. Having an index does
// not mean the index should be used — it wins only when the join
// touches a small fraction of it. This example runs the same pair of
// relations through the planner at several selectivities and shows the
// decision flipping at the machine's break-even threshold.
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
	terrain := datagen.NewTerrain(5, universe, 25)

	// A country-wide indexed road relation.
	roads := datagen.Roads(terrain, 31, 60000, datagen.RoadParams{})
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(universe)
	r, err := ws.AddNamedRelation("roads", roads)
	if err != nil {
		log.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		log.Fatal(err)
	}

	for _, m := range unijoin.Machines {
		d, err := ws.Plan(ctx, m, r, r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s break-even leaf fraction: %.0f%%\n", m.Name+":", d.Threshold*100)
	}
	fmt.Println("\n(Machine 1's ~60% is the figure quoted in the paper; faster transfer")
	fmt.Println("rates with unchanged seek times push the threshold down.)")

	// Hydro relations of growing footprint: from one river basin to the
	// whole country.
	fmt.Printf("\n%-22s %12s %10s %s\n", "hydro footprint", "est. frac", "pairs", "plan")
	for _, frac := range []float64{0.05, 0.2, 0.5, 1.0} {
		region := unijoin.NewRect(0, 0,
			unijoin.Coord(1000*frac), unijoin.Coord(1000*frac))
		if frac >= 1 {
			region = universe
		}
		sub := datagen.NewTerrain(6, region, 8)
		hydro := datagen.Hydro(sub, 41, 5000, datagen.HydroParams{})
		h, err := ws.AddNamedRelation(fmt.Sprintf("hydro-%.0f%%", frac*100), hydro)
		if err != nil {
			log.Fatal(err)
		}
		// AlgAuto plans with the cost model, then executes the chosen
		// representations through the unified PQ join.
		res, err := ws.Query(r, h).
			Algorithm(unijoin.AlgAuto).
			Machine(unijoin.Machine1).
			CountOnly().
			Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %11.0f%% %10d %s\n",
			h.Name(), res.Decision.FracA*100, res.Count(), res.Decision)
	}
	fmt.Println("\nThe planner reads the road index only while the hydro footprint is")
	fmt.Println("local; once the join would touch most leaves, it sorts instead.")
}
