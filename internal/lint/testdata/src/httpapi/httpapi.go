// Package httpapi mirrors the real internal/httpapi surface the
// poolreturn analyzer keys on (package name, NewStream, Stream.Close).
package httpapi

type Stream interface {
	WritePairs(p [][2]uint32)
	Started() bool
	Close()
}

type lineWriter struct{}

func (*lineWriter) WritePairs([][2]uint32) {}
func (*lineWriter) Started() bool          { return false }
func (*lineWriter) Close()                 {}

func NewStream() Stream { return &lineWriter{} }
