package httpapi

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// shutdownGrace is how long in-flight requests get after SIGTERM.
const shutdownGrace = 10 * time.Second

// Serve is the process shell sjserved and sjrouter share: it serves h
// on addr until SIGINT or SIGTERM, then gives in-flight requests
// shutdownGrace to drain and returns nil. A request outliving the
// grace period is routine load shedding, not a crash: the stragglers
// are cut and the stop still counts as clean, so orchestrators see
// exit 0 as documented. A listener that cannot bind, or fails later,
// is returned as the error.
//
// With pprofAddr set, net/http/pprof rides a side listener of its own,
// so profiling is never exposed on the query port; failing to bind it
// is an error like any other, because asking for profiling and
// silently not getting it is worse. Profiling sessions have no drain
// semantics worth waiting on, so that listener closes as soon as the
// shutdown begins instead of leaking until process exit.
func Serve(log *slog.Logger, addr, pprofAddr string, h http.Handler) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2) // one send per listener
	srv := &http.Server{Addr: addr, Handler: h}
	go func() { errc <- srv.ListenAndServe() }()
	var pprofSrv *http.Server
	if pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: pprofAddr, Handler: mux}
		log.Info("pprof listening", "addr", pprofAddr)
		go func() {
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- err
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Info("shutting down", "grace", shutdownGrace.String())
	if pprofSrv != nil {
		pprofSrv.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Warn("shutdown grace expired, closing remaining connections", "err", err)
		srv.Close()
	}
	log.Info("bye")
	return nil
}
