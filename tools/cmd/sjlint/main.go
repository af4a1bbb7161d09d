// Command sjlint vets the spatial-join engine against the invariant
// nothing else holds: typed error sentinels. Run `sjlint -list` for the analyzer roster; `sjlint
// -json` emits NDJSON for machine consumption.
//
// It lives in its own module (unijoin/tools) so the engine module
// stays dependency-free; from this directory,
//
//	go run ./cmd/sjlint ./...
//
// analyzes the enclosing engine module.
package main

import (
	"os"

	"unijoin/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
