package httpapi

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"unijoin/client"
	"unijoin/internal/wire"
)

// transports names the two Streams NewStream picks between.
var transports = []struct {
	name   string
	frames bool
}{{"ndjson", false}, {"frames", true}}

// A producer that emits one batch and then stalls must not hold that
// batch back: the linger writes it, so a client over a real connection
// decodes it while the producer is still blocked — within 100 ms, a
// bound fifty lingers wide. Released, the producer finishes and the
// whole stream decodes to the exact answer.
func TestStalledProducerFlushesWithinLinger(t *testing.T) {
	first := [][2]uint32{{1, 2}, {3, 4}}
	rest := [][][2]uint32{fullBatch(100), {{5, 6}}, fullBatch(200_000)}
	want := slices.Concat(append([][][2]uint32{first}, rest...)...)

	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			produced, release := make(chan struct{}), make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				out := NewStream(w, r, nil)
				defer out.Close()
				out.WritePairs(first)
				close(produced)
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
				for _, b := range rest {
					out.WritePairs(b)
				}
				out.Finish(&client.JoinSummary{Left: "a", Right: "b", Pairs: int64(len(want))})
			}))
			defer ts.Close()
			defer func() {
				select {
				case <-release:
				default:
					close(release)
				}
			}()

			cl := client.New(ts.URL, nil)
			cl.PreferBinary = tr.frames
			decoded := make(chan struct{})
			type result struct {
				pairs [][2]uint32
				sum   *client.JoinSummary
				err   error
			}
			done := make(chan result, 1)
			go func() {
				var got [][2]uint32
				sum, err := cl.JoinBatches(context.Background(), client.JoinRequest{Left: "a", Right: "b"}, func(batch [][2]uint32) {
					if got = append(got, batch...); len(got) == len(first) {
						close(decoded)
					}
				})
				done <- result{got, sum, err}
			}()

			<-produced
			select {
			case <-decoded:
			case <-time.After(100 * time.Millisecond):
				t.Fatal("the first batch was not decoded within 100 ms of a stalled producer emitting it")
			}
			close(release)
			res := <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			if !slices.Equal(res.pairs, want) || res.sum.Pairs != int64(len(want)) {
				t.Fatalf("decoded %d pairs (summary %d), want the %d produced, in order",
					len(res.pairs), res.sum.Pairs, len(want))
			}
		})
	}
}

// watchedWriter forwards to a response writer and counts the writes
// that arrive after closed is set.
type watchedWriter struct {
	http.ResponseWriter
	closed atomic.Bool
	late   atomic.Int64
}

func (w *watchedWriter) Write(p []byte) (int, error) {
	if w.closed.Load() {
		w.late.Add(1)
	}
	return w.ResponseWriter.Write(p)
}

func (w *watchedWriter) Flush() {
	if w.closed.Load() {
		w.late.Add(1)
	}
	w.ResponseWriter.(http.Flusher).Flush()
}

// Close while the linger is armed ends the stream: what was pending is
// written by Close itself, and nothing — no write, no flush — follows
// it, however long the handler lingers afterwards.
func TestCloseWhileLingerArmed(t *testing.T) {
	batch := [][2]uint32{{1, 2}, {3, 4}}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			late := make(chan int64, 1)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				ww := &watchedWriter{ResponseWriter: w}
				out := NewStream(ww, r, nil)
				out.WritePairs(batch) // arms the linger
				out.Close()
				ww.closed.Store(true)
				// Absence can only be observed over time: give an armed
				// timer five lingers to misfire.
				time.Sleep(5 * flushLinger)
				late <- ww.late.Load()
			}))
			defer ts.Close()

			req, err := http.NewRequest(http.MethodPost, ts.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tr.frames {
				req.Header.Set("Accept", wire.ContentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if n := <-late; n != 0 {
				t.Fatalf("%d writes or flushes after Close", n)
			}
			want := lineOf(t, client.JoinLine{Pairs: batch})
			if tr.frames {
				want = string(wire.AppendPairs(nil, batch))
			}
			if string(body) != want {
				t.Fatalf("body %q, want exactly the batch Close wrote, %q", body, want)
			}
		})
	}
}
