package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/httpapi"
	"unijoin/internal/jointest"
	"unijoin/internal/shard"
)

// recordsIn converts generated records to their wire form.
func recordsIn(recs []unijoin.Record) []client.RecordIn {
	out := make([]client.RecordIn, len(recs))
	for i, r := range recs {
		out[i] = client.RecordIn{ID: uint32(r.ID), Rect: httpapi.FromRect(r.Rect)}
	}
	return out
}

// ndjsonBody renders records as the bulk append wire format, one JSON
// object per line — what sjgen -ndjson emits.
func ndjsonBody(recs []client.RecordIn) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "{\"id\":%d,\"rect\":{\"xlo\":%g,\"ylo\":%g,\"xhi\":%g,\"yhi\":%g}}\n",
			r.ID, r.Rect.XLo, r.Rect.YLo, r.Rect.XHi, r.Rect.YHi)
	}
	return b.String()
}

// TestAppendEndpointFormats drives the append endpoint through all
// three body formats — single object, JSON array, bulk NDJSON — into
// both an indexed and a non-indexed relation, and checks the records
// become visible to queries started after each append.
func TestAppendEndpointFormats(t *testing.T) {
	cat := testCatalog(t, 800) // roads: 800 indexed; hydro: 600 unindexed
	_, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()
	u := unijoin.NewRect(0, 0, 1000, 1000)

	// Single object into the indexed relation.
	one := client.RecordIn{ID: 800, Rect: client.Rect{XLo: 10, YLo: 10, XHi: 30, YHi: 30}}
	sum, err := cl.AppendRecords(ctx, "roads", []client.RecordIn{one})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != 1 || sum.Records != 801 || sum.DeltaRecords != 1 {
		t.Fatalf("summary %+v, want appended=1 records=801 delta=1", sum)
	}

	// Array into the indexed relation; epoch must advance by one.
	delta := datagen.Uniform(7, 120, u, 40)
	for i := range delta {
		delta[i].ID = unijoin.ID(801 + i)
	}
	sum2, err := cl.AppendRecords(ctx, "roads", recordsIn(delta))
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Appended != 120 || sum2.Records != 921 || sum2.Epoch != sum.Epoch+1 {
		t.Fatalf("summary %+v, want appended=120 records=921 epoch=%d", sum2, sum.Epoch+1)
	}

	// Bulk NDJSON into the non-indexed relation.
	hydroDelta := datagen.Uniform(8, 200, u, 40)
	for i := range hydroDelta {
		hydroDelta[i].ID = unijoin.ID(600 + i)
	}
	sum3, err := cl.AppendNDJSON(ctx, "hydro", strings.NewReader(ndjsonBody(recordsIn(hydroDelta))))
	if err != nil {
		t.Fatal(err)
	}
	if sum3.Appended != 200 {
		t.Fatalf("ndjson appended %d, want 200", sum3.Appended)
	}

	// Queries started after the appends see every record.
	wsum, err := cl.Window(ctx, client.WindowRequest{Relation: "roads", Window: &client.Rect{XHi: 1000, YHi: 1000}, CountOnly: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wsum.Records != 921 || !wsum.Indexed {
		t.Fatalf("roads window sees %d records (indexed=%v), want 921 indexed", wsum.Records, wsum.Indexed)
	}
	jsum, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cat.Workspace().Query(mustGet(t, cat, "roads"), mustGet(t, cat, "hydro")).CountOnly().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if jsum.Pairs != want.Count() {
		t.Fatalf("joined %d pairs over HTTP, %d in-process", jsum.Pairs, want.Count())
	}

	// Error shapes: unknown relation, malformed body, invalid rect.
	if _, err := cl.AppendRecords(ctx, "nope", []client.RecordIn{one}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown relation: %v, want not found", err)
	}
	if _, err := cl.AppendNDJSON(ctx, "roads", strings.NewReader("{not json}\n")); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("bad ndjson: %v, want bad request", err)
	}
	// The body is parsed before the relation is looked up, as on the
	// router: a malformed body is a 400 whatever relation it names.
	if _, err := cl.AppendNDJSON(ctx, "nope", strings.NewReader("{not json}\n")); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("bad ndjson to an unknown relation: %v, want bad request", err)
	}
	// JSON cannot carry NaN/Inf, so an invalid rectangle has to be
	// injected below the client marshaling layer.
	if _, err := cl.AppendNDJSON(ctx, "roads",
		strings.NewReader(`{"id":1,"rect":{"xlo":1e999,"xhi":1,"yhi":1}}`+"\n")); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("invalid rect: %v, want bad request", err)
	}
}

// TestAppendStripeFilterAndOwnership checks live ingestion on a stripe
// shard: an append keeps only the records the stripe loads, and the
// next join — which pins the new epoch — owns exactly the pairs the
// reference-point rule gives this shard, appended records included.
func TestAppendStripeFilterAndOwnership(t *testing.T) {
	cat := testCatalog(t, 800)
	iv, err := shard.ParseInterval(":500")
	if err != nil {
		t.Fatal(err)
	}
	_, cl, _ := testServer(t, Config{Catalog: cat, Stripe: &iv})
	ctx := context.Background()

	before, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}

	// Append records on both sides of the stripe boundary: the shard
	// must keep only those overlapping [.., 500).
	in := []client.RecordIn{
		{ID: 9000, Rect: client.Rect{XLo: 100, YLo: 100, XHi: 140, YHi: 140}}, // inside
		{ID: 9001, Rect: client.Rect{XLo: 480, YLo: 100, XHi: 520, YHi: 140}}, // crossing: loads here
		{ID: 9002, Rect: client.Rect{XLo: 700, YLo: 100, XHi: 740, YHi: 140}}, // outside
	}
	sum, err := cl.AppendRecords(ctx, "roads", in)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != 2 || sum.Records != 802 {
		t.Fatalf("stripe shard appended %d (total %d), want 2 of 3 kept", sum.Appended, sum.Records)
	}

	// The join after the append sees the new records; the owned-pair
	// count can only grow.
	after, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Pairs < before.Pairs {
		t.Fatalf("owned pairs shrank after append: %d -> %d", before.Pairs, after.Pairs)
	}
	// The reference's share for the stripe, over the records the shard
	// kept.
	u := unijoin.NewRect(0, 0, 1000, 1000)
	grown := datagen.Uniform(1, 800, u, 40)
	for _, r := range in[:2] {
		grown = append(grown, unijoin.Record{ID: r.ID, Rect: httpapi.ToRect(r.Rect)})
	}
	if want := jointest.Owned(grown, datagen.Uniform(2, 600, u, 40), nil, iv.Lo, iv.Hi).Len(); after.Pairs != want {
		t.Fatalf("owned pairs over HTTP %d, reference %d", after.Pairs, want)
	}
}

// TestIngestStatsAndMetrics checks the observability satellite: the
// ingest counters surface on /v1/stats and the metric families render
// on /metrics, and a large enough append trips auto-compaction.
func TestIngestStatsAndMetrics(t *testing.T) {
	cat := testCatalog(t, 800)
	_, cl, url := testServer(t, Config{Catalog: cat})
	ctx := context.Background()
	u := unijoin.NewRect(0, 0, 1000, 1000)

	small := datagen.Uniform(11, 50, u, 40)
	for i := range small {
		small[i].ID = unijoin.ID(800 + i)
	}
	if _, err := cl.AppendRecords(ctx, "roads", recordsIn(small)); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Appends != 1 || stats.RecordsIngested != 50 || stats.DeltaRecords != 50 {
		t.Fatalf("stats %+v, want appends=1 ingested=50 delta=50", stats)
	}

	// A delta past the compaction threshold (DefaultCompactMin=4096,
	// base 850) folds the log; the gauge drops back to zero.
	big := datagen.Uniform(12, 4100, u, 40)
	for i := range big {
		big[i].ID = unijoin.ID(850 + i)
	}
	sum, err := cl.AppendNDJSON(ctx, "roads", strings.NewReader(ndjsonBody(recordsIn(big))))
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Compacted || sum.DeltaRecords != 0 {
		t.Fatalf("summary %+v, want a compaction and an empty delta", sum)
	}
	stats, err = cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compactions != 1 || stats.DeltaRecords != 0 {
		t.Fatalf("stats %+v, want compactions=1 delta=0", stats)
	}

	// The exposition endpoint renders the ingest families.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`sj_ingest_records_total{relation="roads"} 4150`,
		"sj_compactions_total 1",
		"sj_ingest_seconds_count 2",
		`sj_delta_records{relation="roads"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}
