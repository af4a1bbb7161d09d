package shard_test

import (
	"context"
	"math/rand"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/shard"
	"unijoin/internal/tiger"
)

// BenchmarkRoutedWindow is the load benchmark's routed_window op
// without a fleet of processes: three in-process shards over httptest
// hold the stripes of the TIGER-like NJ.roads (the benchmark's data and
// plan), and a verified router streams the records of the workload's
// windows — 0.5 % of the region a side, centred on a record — and, for
// contrast, of one window across every cut. legs/op is how many shards
// an op reached, by their own request counters: what the pruning saves
// is the rest of them.
func BenchmarkRoutedWindow(b *testing.B) {
	roads, hydro := tiger.Config{Scale: 0.25, Seed: 1997}.Generate(tiger.NJ)
	region := tiger.NJ.Region
	plan := shard.NewPlan(region, 3, roads, hydro)
	rels := map[string][]unijoin.Record{"roads": roads}
	urls := make([]string, plan.Shards())
	for i := range urls {
		urls[i] = startShardOver(b, region, plan.Interval(i), []string{"roads"}, rels, true)
	}
	router, err := shard.NewRouter(urls, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := router.Verify(context.Background()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1997))
	small := make([]client.Rect, 1024)
	for i := range small {
		c := roads[rng.Intn(len(roads))].Rect.Center()
		hw, hh := float64(region.Width())*0.005/2, float64(region.Height())*0.005/2
		small[i] = client.Rect{XLo: float64(c.X) - hw, YLo: float64(c.Y) - hh, XHi: float64(c.X) + hw, YHi: float64(c.Y) + hh}
	}
	c := region.Center()
	across := []client.Rect{{XLo: float64(region.XLo), YLo: float64(c.Y) - 1, XHi: float64(region.XHi), YHi: float64(c.Y) + 1}}
	for _, row := range []struct {
		name string
		wins []client.Rect
	}{{"window-0.5%", small}, {"across-every-cut", across}} {
		wins := row.wins
		b.Run(row.name, func(b *testing.B) {
			served := func() (n int64) {
				for _, url := range urls {
					n += shardRequests(b, url, "window")
				}
				return n
			}
			before := served()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := client.WindowRequest{Relation: "roads", Window: &wins[i%len(wins)]}
				var streamed int64
				sum, err := router.Window(context.Background(), req, func(recs []client.RecordOut) { streamed += int64(len(recs)) })
				if err != nil || sum.Records != streamed {
					b.Fatalf("%d records streamed, summary %+v (%v)", streamed, sum, err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(served()-before)/float64(b.N), "legs/op")
		})
	}
}
