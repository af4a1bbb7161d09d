package client

import (
	"context"
	"net/url"
	"strconv"
)

// parentSpanHeader mirrors internal/httpapi's parentSpanHeader; as with
// requestIDHeader, the client package cannot import httpapi, so the
// constant exists on both sides of the wire.
const parentSpanHeader = "X-Parent-Span"

// psKey is the context key carrying the caller's span ID.
type psKey struct{}

// WithParentSpan returns a context carrying the caller's span ID;
// every Client call under it sends the ID as X-Parent-Span, so the
// callee's recorded trace links back to the exact span — a router's
// scatter leg — that caused it.
func WithParentSpan(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, psKey{}, id)
}

// ParentSpanFrom returns the span ID carried by ctx, or "".
func ParentSpanFrom(ctx context.Context) string {
	id, _ := ctx.Value(psKey{}).(string)
	return id
}

// Traces lists the server's recent traces, newest first (n ≤ 0 for
// the server's default window).
func (c *Client) Traces(ctx context.Context, n int) ([]TraceSummary, error) {
	path := "/v1/traces"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var out []TraceSummary
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// TraceByID fetches one trace's full span tree. A trace that has been
// evicted from the server's bounded ring (or never existed) returns a
// *APIError matching ErrNotFound.
func (c *Client) TraceByID(ctx context.Context, id string) (*TraceDetail, error) {
	var out TraceDetail
	if err := c.getJSON(ctx, "/v1/traces/"+url.PathEscape(id), &out); err != nil {
		return nil, err
	}
	return &out, nil
}
