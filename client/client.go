package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"unijoin/internal/geom"
	"unijoin/internal/wire"
)

// maxLineBytes bounds one NDJSON response line; batch lines are
// server-capped far below this.
const maxLineBytes = 1 << 20

// requestIDHeader mirrors the header name internal/httpapi uses; the
// client package cannot import it (the dependency points the other
// way), so the constant exists on both sides of the wire.
const requestIDHeader = "X-Request-Id"

// ridKey is the context key carrying a request's correlation ID.
type ridKey struct{}

// WithRequestID returns a context carrying a request correlation ID;
// every Client call under it sends the ID as X-Request-Id, so a query
// can be followed client → router → shard through the fleet's logs.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestIDFrom returns the correlation ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// Client talks to one sjserved instance. The zero value is not
// usable; construct with New. Client is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	// PreferBinary makes Join/Window streaming offer the binary frame
	// transport (internal/wire: packed, CRC-checked frames instead of
	// NDJSON). A server that does not speak it answers NDJSON, which
	// the client decodes as usual: the response's Content-Type decides.
	// Set it before the client is shared between goroutines.
	PreferBinary bool
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8470"). httpClient may be nil for
// http.DefaultClient; cancellation and deadlines come from the
// per-call context either way.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient}
}

// Health checks GET /v1/healthz, returning nil when the service is up.
func (c *Client) Health(ctx context.Context) error {
	var ignored map[string]string
	return c.getJSON(ctx, "/v1/healthz", &ignored)
}

// Relations lists the server's relation catalog.
func (c *Client) Relations(ctx context.Context) ([]RelationInfo, error) {
	var out []RelationInfo
	if err := c.getJSON(ctx, "/v1/relations", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the server's request counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.getJSON(ctx, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Join runs a spatial join on the server, streaming each result pair
// to onPair as batches arrive, and returns the summary the server
// computed. onPair may be nil (or req.CountOnly set) to skip pair
// delivery. Errors from the service are returned as *APIError, which
// matches the package's sentinel errors under errors.Is.
func (c *Client) Join(ctx context.Context, req JoinRequest, onPair func(left, right uint32)) (*JoinSummary, error) {
	var onBatch func([][2]uint32)
	if onPair != nil {
		onBatch = func(batch [][2]uint32) {
			for _, p := range batch {
				onPair(p[0], p[1])
			}
		}
	}
	return c.JoinBatches(ctx, req, onBatch)
}

// JoinBatches is Join with pair delivery at the wire's batch
// granularity: onBatch (which may be nil) receives each batch line's or
// PAIRS frame's pairs as one slice, valid only until it returns — the
// amortized path for callers that merge or forward whole batches.
func (c *Client) JoinBatches(ctx context.Context, req JoinRequest, onBatch func(pairs [][2]uint32)) (*JoinSummary, error) {
	resp, frames, err := c.stream(ctx, "/v1/join", req, c.PreferBinary)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if !frames {
		return decodeLines(resp.Body, func(l *line[JoinSummary]) {
			if onBatch != nil && len(l.Pairs) > 0 {
				onBatch(l.Pairs)
			}
		})
	}
	var pairs [][2]uint32
	return decodeFrames[JoinSummary](resp.Body, wire.TypePairs, func(f wire.Frame) (err error) {
		if pairs, err = f.Pairs(pairs[:0]); err == nil && onBatch != nil && len(pairs) > 0 {
			onBatch(pairs)
		}
		return err
	})
}

// JoinCount is Join with CountOnly forced: the cheapest way to get a
// pair count, with no pair ever materialized or sent.
func (c *Client) JoinCount(ctx context.Context, req JoinRequest) (*JoinSummary, error) {
	req.CountOnly = true
	return c.Join(ctx, req, nil)
}

// Window runs a window query on the server, streaming each matching
// record to onRecord (which may be nil), and returns the summary.
func (c *Client) Window(ctx context.Context, req WindowRequest, onRecord func(RecordOut)) (*WindowSummary, error) {
	var onBatch func([]RecordOut)
	if onRecord != nil {
		onBatch = func(batch []RecordOut) {
			for _, r := range batch {
				onRecord(r)
			}
		}
	}
	return c.WindowBatches(ctx, req, onBatch)
}

// WindowBatches is Window with record delivery at the wire's batch
// granularity, mirroring JoinBatches. Frames carry records packed in
// the engine's 20-byte layout; they are widened to RecordOut here, at
// the edge.
func (c *Client) WindowBatches(ctx context.Context, req WindowRequest, onBatch func([]RecordOut)) (*WindowSummary, error) {
	resp, frames, err := c.stream(ctx, "/v1/window", req, c.PreferBinary)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if !frames {
		return decodeLines(resp.Body, func(l *line[WindowSummary]) {
			if onBatch != nil && len(l.Records) > 0 {
				onBatch(l.Records)
			}
		})
	}
	var recs []geom.Record
	var out []RecordOut
	return decodeFrames[WindowSummary](resp.Body, wire.TypeRecords, func(f wire.Frame) (err error) {
		if recs, err = f.Records(recs[:0]); err != nil || onBatch == nil || len(recs) == 0 {
			return err
		}
		out = out[:0]
		for _, rec := range recs {
			out = append(out, RecordOut{ID: rec.ID, Rect: Rect{
				XLo: float64(rec.Rect.XLo), YLo: float64(rec.Rect.YLo),
				XHi: float64(rec.Rect.XHi), YHi: float64(rec.Rect.YHi),
			}})
		}
		onBatch(out)
		return nil
	})
}

// line is any line of an NDJSON response stream — JoinLine and
// WindowLine folded into one shape, so one loop reads both. Exactly
// one field is set.
type line[S any] struct {
	Pairs   [][2]uint32 `json:"pairs"`
	Records []RecordOut `json:"records"`
	Summary *S          `json:"summary"`
	Error   *APIError   `json:"error"`
}

// decodeLines consumes an NDJSON response stream: batch lines to
// onData, then the terminal line's summary, or its error.
func decodeLines[S any](body io.Reader, onData func(*line[S])) (*S, error) {
	var summary *S
	err := scanLines(body, func(data []byte) error {
		var l line[S]
		if err := json.Unmarshal(data, &l); err != nil {
			return fmt.Errorf("sjserved: bad response line: %w", err)
		}
		switch {
		case l.Error != nil:
			return l.Error
		case l.Summary != nil:
			summary = l.Summary
		default:
			onData(&l)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if summary == nil {
		return nil, fmt.Errorf("sjserved: response stream ended without a summary")
	}
	return summary, nil
}

// AppendRecords appends records to a cataloged relation and returns
// the server's summary. The records become visible to every query
// started after the call returns; queries already running keep their
// pinned view. Against a router, each record is placed on every shard
// whose stripe it overlaps, so the fleet keeps answering exactly like
// a single process.
func (c *Client) AppendRecords(ctx context.Context, relation string, recs []RecordIn) (*AppendSummary, error) {
	payload, err := json.Marshal(recs)
	if err != nil {
		return nil, err
	}
	return c.postAppend(ctx, relation, "application/json", bytes.NewReader(payload))
}

// AppendNDJSON streams a bulk append body — one RecordIn JSON object
// per line, the format cmd/sjgen emits with -ndjson — to the append
// endpoint. The body is not buffered client-side, so arbitrarily
// large loads stream straight through.
func (c *Client) AppendNDJSON(ctx context.Context, relation string, body io.Reader) (*AppendSummary, error) {
	return c.postAppend(ctx, relation, "application/x-ndjson", body)
}

// ParseRecords parses an append request body into records, selecting
// the format by content type the way the server does: anything
// mentioning "ndjson" is read one JSON record per line; otherwise the
// body is plain JSON, either a single record object or an array of
// them. Both sides of the wire (internal/server and the router's
// serving layer) parse through this one function, so the accepted
// formats cannot drift.
func ParseRecords(contentType string, body io.Reader) ([]RecordIn, error) {
	if strings.Contains(contentType, "ndjson") {
		var recs []RecordIn
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 64*1024), maxLineBytes)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var in RecordIn
			if err := json.Unmarshal(line, &in); err != nil {
				return nil, fmt.Errorf("bad record on line %d: %w", lineNo, err)
			}
			recs = append(recs, in)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("reading append body: %w", err)
		}
		return recs, nil
	}
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("reading append body: %w", err)
	}
	data = bytes.TrimSpace(data)
	switch {
	case len(data) == 0 || bytes.Equal(data, []byte("null")):
		return nil, nil
	case data[0] == '[':
		var recs []RecordIn
		if err := json.Unmarshal(data, &recs); err != nil {
			return nil, fmt.Errorf("bad record array: %w", err)
		}
		return recs, nil
	default:
		var in RecordIn
		if err := json.Unmarshal(data, &in); err != nil {
			return nil, fmt.Errorf("bad record object: %w", err)
		}
		return []RecordIn{in}, nil
	}
}

// postAppend POSTs an append body and decodes the summary.
func (c *Client) postAppend(ctx context.Context, relation, contentType string, body io.Reader) (*AppendSummary, error) {
	path := "/v1/relations/" + url.PathEscape(relation) + "/records"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out AppendSummary
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// getJSON performs a GET and decodes a plain JSON response.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// stream POSTs a streaming query and returns its response and whether
// the body is a frame stream. With offer set the request carries
// Accept: application/x-sj-frames, and the response's Content-Type
// says whether the server obliged — a server that ignores the offer
// answers NDJSON, so a decoding caller never has to know what the far
// end speaks. Non-2xx responses come back as *APIError.
func (c *Client) stream(ctx context.Context, path string, in any, offer bool) (resp *http.Response, frames bool, err error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return nil, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if offer {
		req.Header.Set("Accept", wire.ContentType)
	}
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	if id := ParentSpanFrom(ctx); id != "" {
		req.Header.Set(parentSpanHeader, id)
	}
	resp, err = c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, false, decodeError(resp)
	}
	return resp, wire.IsFrameResponse(resp.Header.Get("Content-Type")), nil
}

// scanLines feeds each non-empty NDJSON line to fn.
func scanLines(r io.Reader, fn func([]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return sc.Err()
}

// decodeError turns a non-2xx response into an *APIError. When the
// body is not the expected {"error": {...}} shape (a proxy's bare
// 404, a load balancer's HTML error page), the error code is derived
// from the HTTP status, so the result still matches the right
// sentinel under errors.Is and the raw body is preserved in the
// message.
func decodeError(resp *http.Response) error {
	var wrapper struct {
		Error *APIError `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(data, &wrapper); err != nil || wrapper.Error == nil || wrapper.Error.Code == "" {
		return &APIError{
			Status:  resp.StatusCode,
			Code:    codeForStatus(resp.StatusCode),
			Message: fmt.Sprintf("unexpected response: %s", bytes.TrimSpace(data)),
		}
	}
	wrapper.Error.Status = resp.StatusCode
	return wrapper.Error
}
