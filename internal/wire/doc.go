// Package wire is the binary pair-stream transport: a dependency-free,
// length-prefixed framing protocol for spatial-join results, built on
// the paper's 20-byte record format (Arge et al. §5.3, internal/geom).
// It is the one protocol between a router and its shards, and replaces
// NDJSON towards any caller that offers it — negotiated per request
// via "Accept: application/x-sj-frames" — so a router can relay a
// shard's result stream to such a caller without decoding a single
// entry. A caller that does not offer it gets NDJSON rendered from the
// same frames at the front it talks to.
//
// # Frame layout
//
// Every frame is a 12-byte little-endian header followed by a payload:
//
//	offset  size  field
//	0       2     magic "SJ" (0x53 0x4A)
//	2       1     version (currently 1)
//	3       1     frame type (see below)
//	4       4     payload length N (uint32 LE, at most MaxPayload)
//	8       4     CRC-32 (IEEE) of the payload bytes
//	12      N     payload
//
// Frame types and their payloads:
//
//	type     value  payload
//	PAIRS    1      N/8 join pairs, each 8 bytes: left ID, right ID
//	                (uint32 LE each) — geom.EncodePair's layout
//	RECORDS  2      N/20 records, each 20 bytes: xlo, ylo, xhi, yhi
//	                (float32 LE each), then the ID (uint32 LE) —
//	                geom.EncodeRecord's layout, the paper's on-disk atom
//	SUMMARY  3      one JSON object: the stream's terminal summary
//	                (client.JoinSummary or client.WindowSummary)
//	ERROR    4      one JSON object: client.APIError
//	END      5      empty — the stream's clean-termination mark
//
// # Stream grammar
//
// A response stream is zero or more data frames (PAIRS for joins,
// RECORDS for window queries), then exactly one SUMMARY or ERROR
// frame, then END:
//
//	stream := data* (SUMMARY | ERROR) END
//
// A stream that stops before END was truncated (a crashed peer, a cut
// connection); Decoder reports that as ErrTruncated. An ERROR frame
// after data frames is the binary form of the NDJSON path's
// trailing-error contract: results already streamed are valid, the
// query did not finish.
//
// # Frames are not writes
//
// Framing says nothing about how the bytes travel. A serving stream
// packs many frames into one write (internal/httpapi flushes at 64 KiB,
// after a 2 ms linger, and at the end of the stream), HTTP chunking
// cuts writes where it likes, and a reader's buffer cuts reads where it
// likes. A reader must therefore never assume that a read returns whole
// frames or starts at a frame boundary: Scanner and Decoder read the
// header, then exactly the payload length it declares, with
// io.ReadFull, whatever the reads return.
//
// # Integrity: end-to-end, not hop-by-hop
//
// The CRC covers the payload and is verified where the payload is
// parsed — for data frames at the client, or at the router front when
// it renders them as NDJSON for a caller that did not offer frames;
// for SUMMARY and ERROR frames at each hop (the only frames a router
// must always read, to merge shard responses). A router relaying to a
// frame-speaking caller passes data frames through as opaque bytes,
// checksum and all (Scanner validates just the 12-byte header to find
// frame boundaries), so corruption anywhere between shard and client
// is still caught, and the router's per-pair cost is a copy.
//
// # Bounds
//
// Payloads are capped at MaxPayload (1 MiB). Decoder and Scanner
// reject larger length fields before allocating, so a corrupt or
// hostile length cannot balloon memory; both also reject unknown
// magic, versions, and frame types with typed errors that all match
// ErrCorrupt under errors.Is.
package wire
