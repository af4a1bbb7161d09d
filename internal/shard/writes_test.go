package shard_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/shard"
)

// countingListener counts the connections a server accepts and, per
// connection, the writes and bytes the server puts on it.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// accepted is the number of connections accepted so far.
func (l *countingListener) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// connCount is one connection's write tally.
type connCount struct{ writes, bytes int64 }

// snapshot returns every connection's tally so far, in accept order.
func (l *countingListener) snapshot() []connCount {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]connCount, len(l.conns))
	for i, c := range l.conns {
		out[i] = connCount{c.writes.Load(), c.bytes.Load()}
	}
	return out
}

type countingConn struct {
	net.Conn
	writes, bytes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// startCounted serves h over a counting listener.
func startCounted(t *testing.T, h http.Handler) (string, *countingListener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	l := &countingListener{Listener: ts.Listener}
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
	return ts.URL, l
}

// streamsOf returns the per-connection tallies that moved between two
// snapshots: the streams one operation wrote.
func streamsOf(before, after []connCount) []connCount {
	var out []connCount
	for i, a := range after {
		var b connCount
		if i < len(before) {
			b = before[i]
		}
		if d := (connCount{a.writes - b.writes, a.bytes - b.bytes}); d.writes > 0 {
			out = append(out, d)
		}
	}
	return out
}

// countedFleet is routed_stream's shape in process: uniform 16 k × 12 k
// records of extent ≤ 20 on 1000², three planned stripes, a verified
// router and its front, every shard and the front on a counting
// listener. wrap, when set, wraps each shard's handler.
func countedFleet(t *testing.T, wrap func(http.Handler) http.Handler) (front string, frontL *countingListener, shardLs []*countingListener) {
	t.Helper()
	a := datagen.Uniform(1997, 16_000, universe, 20)
	b := datagen.Uniform(1998, 12_000, universe, 20)
	rels := map[string][]unijoin.Record{"a": a, "b": b}
	plan := shard.NewPlan(universe, 3, a, b)
	urls := make([]string, plan.Shards())
	for i := range urls {
		h := shardHandler(t, universe, plan.Interval(i), []string{"a", "b"}, rels, false)
		if wrap != nil {
			h = wrap(h)
		}
		var l *countingListener
		urls[i], l = startCounted(t, h)
		shardLs = append(shardLs, l)
	}
	router, err := shard.NewRouter(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
	front, frontL = startCounted(t, shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()}).Handler())
	return front, frontL, shardLs
}

// routedJoin runs one binary PQ join through the front and returns its
// pair count.
func routedJoin(t *testing.T, cl *client.Client) int64 {
	sum, err := cl.JoinBatches(context.Background(), client.JoinRequest{Left: "a", Right: "b", Algorithm: "PQ"}, func([][2]uint32) {})
	if err != nil {
		t.Error(err)
		return 0
	}
	return sum.Pairs
}

// writesPerFlush is what one Write + Flush of a Stream costs on the
// connection under net/http's chunked encoding: at most a 4 KiB
// buffered write (chunk header and the start of the data), one direct
// write of the rest, and the trailing CRLF at Flush.
const writesPerFlush = 3

// The flush rule's values, spelled out rather than read from httpapi,
// so that a Stream flushing more often than they allow fails here.
const (
	flushBytes  = 64 << 10
	flushLinger = 2 * time.Millisecond
)

// TestRoutedJoinWrites pins the flush rule where it pays: on every
// stream of a routed binary join — each shard's to the router, the
// router's to the client — the connection sees no more writes than
// one flush per 64 KiB written plus one per 2 ms linger of the op's
// wall time plus the terminal ones. That bound holds on any box and
// under -race. The per-op totals depend on how long the op took, so
// they are logged beside it, not asserted; when every 8 KiB frame was
// flushed alone they were 232 shard-side and 226 from the router.
func TestRoutedJoinWrites(t *testing.T) {
	front, frontL, shardLs := countedFleet(t, nil)
	cl := client.New(front, nil)
	cl.PreferBinary = true
	pairs := routedJoin(t, cl) // warm: prepared runs, connections
	if pairs == 0 {
		t.Fatal("the warm-up join found no pairs")
	}

	for op := 0; op < 5; op++ {
		before := make([][]connCount, len(shardLs))
		for i, l := range shardLs {
			before[i] = l.snapshot()
		}
		frontBefore := frontL.snapshot()
		start := time.Now()
		if got := routedJoin(t, cl); got != pairs {
			t.Fatalf("op %d: %d pairs, the warm-up join %d", op, got, pairs)
		}
		elapsed := time.Since(start)

		check := func(side string, streams []connCount) (total int64) {
			for _, s := range streams {
				flushes := (s.bytes+flushBytes-1)/flushBytes + int64((elapsed+flushLinger-1)/flushLinger) + 2
				if s.writes > writesPerFlush*flushes {
					t.Errorf("op %d, %s stream: %d conn writes for %d bytes in %v, want ≤ %d × %d flushes",
						op, side, s.writes, s.bytes, elapsed, writesPerFlush, flushes)
				}
				total += s.writes
			}
			return total
		}
		var shardWrites int64
		for i, l := range shardLs {
			shardWrites += check("shard", streamsOf(before[i], l.snapshot()))
		}
		frontWrites := check("router", streamsOf(frontBefore, frontL.snapshot()))
		t.Logf("op %d: %d pairs in %v: %d conn writes shard-side, %d from the router", op, pairs, elapsed.Round(time.Microsecond), shardWrites, frontWrites)
	}
}

// barrier holds the first n joins a shard receives until all n have
// arrived, so that the round carrying them has n legs in flight at the
// shard at once — n connections, however the legs are scheduled.
func barrier(n int64, h http.Handler) http.Handler {
	var arrived atomic.Int64
	all := make(chan struct{})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/join" {
			switch k := arrived.Add(1); {
			case k < n:
				select {
				case <-all:
				case <-r.Context().Done():
					return
				}
			case k == n:
				close(all)
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestConcurrentRoutedJoinsReuseShardConnections: once warm, a router
// serving as many concurrent routed joins as its shard transport keeps
// idle connections per shard (net/http's default two, the benchmark's
// two closed-loop clients) puts every leg on an idle connection, so the
// shards accept no new one. No wait between rounds is needed: the
// transport returns a connection to its idle pool before the leg's
// reader sees the body's EOF, and every leg is read to its EOF (relay)
// before the join answers.
func TestConcurrentRoutedJoinsReuseShardConnections(t *testing.T) {
	const concurrent = http.DefaultMaxIdleConnsPerHost
	front, _, shardLs := countedFleet(t, func(h http.Handler) http.Handler { return barrier(concurrent, h) })
	round := func() {
		var wg sync.WaitGroup
		for range concurrent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := client.New(front, nil)
				cl.PreferBinary = true
				routedJoin(t, cl)
			}()
		}
		wg.Wait()
	}
	round() // warm-up: the barrier makes each shard take a connection per join
	warm := make([]int, len(shardLs))
	for i, l := range shardLs {
		warm[i] = l.accepted()
	}
	for range 10 {
		round()
	}
	for i, l := range shardLs {
		if n := l.accepted(); n != warm[i] {
			t.Errorf("shard %d accepted %d connections after warm-up (%d before it), want none", i, n-warm[i], warm[i])
		}
	}
}
