package shard

import (
	"context"
	"strconv"
	"time"

	"unijoin/client"
	"unijoin/internal/obs"
)

// scatterFunc is the per-leg body of a scatter call; n is the leg's
// position among the legs asked (the shard's endpoint index when the
// scatter asks every shard).
type scatterFunc = func(ctx context.Context, n int, cl *client.Client) error

// ShardCall records one scatter leg of a traced request: the endpoint
// it hit, when the leg started and how long it ran on the router's
// clock, the span tree the shard returned in its summary (traced
// requests only), and the leg's failure, if any.
type ShardCall struct {
	Endpoint string
	Start    time.Time
	Elapsed  time.Duration
	Spans    *client.Span
	Err      error
}

// callTrace threads per-leg tracing through one scatter: one entry per
// shard asked, none for a shard the window pruned. The span IDs are
// minted before the fan-out and sent downstream as X-Parent-Span, so
// each shard's own trace records which scatter leg called it — the
// cross-process edge that joins the two trees.
type callTrace struct {
	shards int // the fleet's size, of which len(calls) were asked
	ids    []string
	calls  []ShardCall
}

// traced wraps a scatter body to record each of its legs into ct —
// sized here, for the legs the scatter asks — and propagate the leg's
// span ID downstream. A nil ct returns fn unchanged, so the untraced
// paths pay nothing.
func (r *Router) traced(ct *callTrace, legs []int, fn scatterFunc) scatterFunc {
	if ct == nil {
		return fn
	}
	ct.shards = len(r.clients)
	ct.ids = make([]string, len(legs))
	ct.calls = make([]ShardCall, len(legs))
	for n, i := range legs {
		ct.ids[n] = obs.NewSpanID()
		ct.calls[n].Endpoint = r.endpoints[i]
	}
	return func(ctx context.Context, n int, cl *client.Client) error {
		c := &ct.calls[n]
		c.Start = time.Now()
		err := fn(client.WithParentSpan(ctx, ct.ids[n]), n, cl)
		c.Elapsed = time.Since(c.Start)
		c.Err = err
		return err
	}
}

// attach builds the root's scatter children from a completed call
// trace: one "scatter" span per shard asked, carrying the endpoint as
// its shard attribute and grafting the span tree the shard returned.
// The root says how many of the fleet's shards that was.
func (ct *callTrace) attach(root *obs.Span) {
	root.SetAttr("legs", strconv.Itoa(len(ct.calls))).SetAttr("shards", strconv.Itoa(ct.shards))
	for i := range ct.calls {
		c := &ct.calls[i]
		child := &obs.Span{
			ID: ct.ids[i], Name: "scatter",
			Start: c.Start, Duration: c.Elapsed,
			Attrs: map[string]string{"shard": c.Endpoint},
		}
		if c.Err != nil {
			child.Attrs["error"] = c.Err.Error()
		}
		if c.Spans != nil {
			child.Children = append(child.Children, obsSpanFromDTO(c.Spans, c.Start))
		}
		root.Children = append(root.Children, child)
	}
}

// obsSpanFromDTO rebases a shard's wire span tree onto base — the
// scatter leg's start on the router's clock. Wire offsets are all
// relative to the shard tree's root, so the same base serves every
// depth; rebasing sidesteps cross-host clock skew entirely (the
// shard's wall-clock start never crosses the wire).
func obsSpanFromDTO(d *client.Span, base time.Time) *obs.Span {
	s := &obs.Span{
		ID:       d.ID,
		Name:     d.Name,
		Start:    base.Add(time.Duration(d.StartMillis * float64(time.Millisecond))),
		Duration: time.Duration(d.DurationMillis * float64(time.Millisecond)),
	}
	if len(d.Attrs) > 0 {
		s.Attrs = make(map[string]string, len(d.Attrs))
		for k, v := range d.Attrs {
			s.Attrs[k] = v
		}
	}
	for _, c := range d.Children {
		s.Children = append(s.Children, obsSpanFromDTO(c, base))
	}
	return s
}
