// Package leakcheck is the end-of-package check on pooled loans and
// goroutines, called from the TestMain of each package whose tests
// borrow pairbuf's buffers or httpapi's Stream buffers. It imports
// both pools' counters, so it is a package of its own that only test
// files import.
package leakcheck

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"unijoin/internal/httpapi"
	"unijoin/internal/pairbuf"
)

// Main runs the tests and returns the exit code for os.Exit: m.Run's
// when a test failed, otherwise 1 unless, within 5 s, no pooled buffer
// is on loan and no more goroutines run than before the first test.
// http.DefaultTransport's idle connections are closed first. A fuzzing
// run (-fuzz) skips the goroutine count: the testing package keeps a
// signal-handling goroutine of its own for it. On failure Main prints
// the counts and a goroutine dump.
func Main(m *testing.M) int {
	base := runtime.NumGoroutine()
	if code := m.Run(); code != 0 {
		return code
	}
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for ; ; time.Sleep(10 * time.Millisecond) {
		loans, pending, goroutines := pairbuf.Outstanding(), httpapi.PendingBuffers(), runtime.NumGoroutine()
		if loans == 0 && pending == 0 && (fuzzing || goroutines <= base) {
			return 0
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d pair/record buffers and %d stream buffers on loan, %d goroutines (%d before the tests)\n",
				loans, pending, goroutines, base)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			return 1
		}
	}
}
