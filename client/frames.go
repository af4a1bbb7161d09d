package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"unijoin/internal/wire"
)

// This file is the consuming side of the binary frame transport
// (internal/wire). One loop, relay, reads a frame stream; decodeFrames
// layers the CRC check and unpacking of a decoding caller on top of it
// (JoinBatches/WindowBatches under PreferBinary), and the exported
// raw-frame calls hand the loop's frames to a relaying router
// untouched.

// frameError classifies a broken frame stream as the API's
// internal-error class: corruption or truncation on the wire is a
// failing peer, not a bad request, and must match ErrInternal under
// errors.Is just like a server-reported internal failure.
func frameError(format string, args ...any) *APIError {
	return &APIError{
		Status: http.StatusInternalServerError, Code: CodeInternal,
		Message: fmt.Sprintf(format, args...),
	}
}

// JoinRawFrames is the relay form of a join: every PAIRS frame is
// handed to onFrame as its exact wire bytes (header + payload, CRC
// untouched and unverified — the consumer's check covers the whole
// journey), valid only until onFrame returns; an error from onFrame
// abandons the stream and is returned as is. Only the terminal SUMMARY
// or ERROR frame is parsed (and CRC-verified, since this process
// consumes it). This is what a router's scatter runs per shard, and
// frames are the fleet's only internal protocol: a shard that answers
// in anything else is a failing shard, reported in the ErrInternal
// class.
func (c *Client) JoinRawFrames(ctx context.Context, req JoinRequest, onFrame func(raw []byte) error) (*JoinSummary, error) {
	return rawFrames[JoinSummary](ctx, c, "/v1/join", req, wire.TypePairs, onFrame)
}

// WindowRawFrames is JoinRawFrames for window queries: RECORDS frames
// relayed raw, summary parsed.
func (c *Client) WindowRawFrames(ctx context.Context, req WindowRequest, onFrame func(raw []byte) error) (*WindowSummary, error) {
	return rawFrames[WindowSummary](ctx, c, "/v1/window", req, wire.TypeRecords, onFrame)
}

func rawFrames[S any](ctx context.Context, c *Client, path string, in any, data wire.Type, onFrame func(raw []byte) error) (*S, error) {
	resp, frames, err := c.stream(ctx, path, in, true)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if !frames {
		return nil, frameError("%s answered a frame-only caller with Content-Type %q", path, resp.Header.Get("Content-Type"))
	}
	return relay[S](resp.Body, data, onFrame)
}

// relay reads a frame stream — data* (SUMMARY | ERROR) END — without
// decoding data payloads: frames of the data type go to onFrame (which
// may be nil) verbatim; the terminal SUMMARY is CRC-verified and parsed
// into S; an ERROR frame becomes the server's *APIError. Anything
// malformed — corruption, truncation, a stream that stops without its
// END frame — comes back as the internal-error class.
func relay[S any](body io.Reader, data wire.Type, onFrame func(raw []byte) error) (*S, error) {
	sc := wire.NewScanner(body)
	var summary *S
	var apiErr *APIError
	for {
		t, raw, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return nil, frameError("frame stream ended without an END frame")
		}
		if err != nil {
			return nil, frameError("%v", err)
		}
		switch t {
		case data:
			if onFrame != nil {
				if err := onFrame(raw); err != nil {
					return nil, err
				}
			}
		case wire.TypeSummary, wire.TypeError:
			f, err := wire.Verify(raw)
			if err != nil {
				return nil, frameError("%v", err)
			}
			var into any = &apiErr
			if t == wire.TypeSummary {
				into = &summary
			}
			if err := json.Unmarshal(f.Payload, into); err != nil {
				return nil, frameError("bad %s frame: %v", t, err)
			}
		case wire.TypeEnd:
			// Nothing follows END, but only a body read to its EOF lets
			// the transport keep the connection for the next call.
			_, _, _ = sc.Next()
			if apiErr != nil {
				return nil, apiErr
			}
			if summary == nil {
				return nil, frameError("frame stream ended without a summary")
			}
			return summary, nil
		default:
			return nil, frameError("unexpected %s frame in the stream", t)
		}
	}
}

// decodeFrames is relay for a caller that consumes the data: each data
// frame is CRC-verified — the end of the end-to-end check — and handed
// to onData to unpack, its payload valid only until onData returns.
func decodeFrames[S any](body io.Reader, data wire.Type, onData func(wire.Frame) error) (*S, error) {
	return relay[S](body, data, func(raw []byte) error {
		f, err := wire.Verify(raw)
		if err == nil {
			err = onData(f)
		}
		if err != nil {
			return frameError("%v", err)
		}
		return nil
	})
}
