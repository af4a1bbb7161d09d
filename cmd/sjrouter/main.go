// Command sjrouter serves spatial-join queries over a fleet of
// sjserved stripe shards: it speaks exactly the sjserved HTTP API, so
// clients (and load balancers) cannot tell a sharded deployment from
// a single process, while every join and window query fans out to the
// shards it concerns — all of them, or under a window those whose
// stripe the window reaches — and the merged response is exactly the
// single-process answer: each shard filters its output by its -stripe
// ownership interval, so counts sum and streams concatenate with no
// duplicates.
//
// Usage:
//
//	sjrouter [-addr :8480] [-timeout 30s] [-wait 30s]
//	         -shard http://host1:8470 -shard http://host2:8470 ...
//
// A typical 3-shard fleet over one deterministic synthetic dataset:
//
//	sjserved -addr :8471 -uniform a=100000 -uniform b=100000 -stripe :333   &
//	sjserved -addr :8472 -uniform a=100000 -uniform b=100000 -stripe 333:666 &
//	sjserved -addr :8473 -uniform a=100000 -uniform b=100000 -stripe 666:   &
//	sjrouter -addr :8480 -shard http://localhost:8471 \
//	         -shard http://localhost:8472 -shard http://localhost:8473
//
// At startup the router health-checks the fleet (retrying until -wait
// expires) and verifies the shards' stripes tile the x-axis — a
// misconfigured fleet that would drop or double-count pairs is
// refused before it serves a single query. The stripes it verified are
// the ones it places appends and prunes windowed queries by from then
// on: re-cutting a fleet means restarting its router. SIGINT/SIGTERM trigger a
// graceful shutdown: in-flight scatter-gather streams get 10 seconds
// to drain, then the process exits 0 (httpapi.Serve, the shell shared
// with sjserved).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"unijoin/internal/httpapi"
	"unijoin/internal/shard"
)

func main() {
	var (
		addr      = flag.String("addr", ":8480", "listen address")
		timeout   = flag.Duration("timeout", 30*time.Second, "router-side ceiling per join/window request (0 = none)")
		wait      = flag.Duration("wait", 30*time.Second, "how long to retry the startup fleet check before giving up")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6061; empty = off)")
		traces    = flag.Int("traces", 0, "recent request traces to keep for GET /v1/traces (0 = default capacity)")
		slowQuery = flag.Duration("slowquery", 0, "log a warning with the scatter breakdown for requests at least this slow (0 = off)")
		shards    []string
	)
	flag.Func("shard", "base URL of one sjserved shard (repeatable)", func(v string) error {
		shards = append(shards, v)
		return nil
	})
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if len(shards) == 0 {
		fail(errors.New("no shards: give at least one -shard URL"))
	}
	router, err := shard.NewRouter(shards, nil)
	if err != nil {
		fail(err)
	}
	if err := awaitFleet(log, router, *wait); err != nil {
		fail(err)
	}

	svc := shard.NewService(shard.ServiceConfig{
		Router: router, Timeout: *timeout, Logger: log,
		Traces: *traces, SlowQuery: *slowQuery,
	})
	log.Info("routing", "addr", *addr, "shards", router.Shards(), "timeout", timeout.String())
	if err := httpapi.Serve(log, *addr, *pprofAddr, svc.Handler()); err != nil {
		fail(err)
	}
}

// awaitFleet retries Router.Verify — every shard healthy, stripes
// tiling the x-axis — until it passes or the wait budget expires, so
// a fleet started in parallel with the router converges instead of
// racing it.
func awaitFleet(log *slog.Logger, router *shard.Router, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for attempt := 1; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		stats, err := router.Verify(ctx)
		cancel()
		if err == nil {
			for i, s := range stats {
				stripe := "(all)"
				if s.Stripe != nil {
					stripe = shard.FromStripe(s.Stripe).String()
				}
				log.Info("shard ready", "shard", i, "url", router.Endpoints()[i],
					"stripe", stripe, "relations", s.Relations)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready after %s: %w", wait, err)
		}
		log.Info("waiting for fleet", "attempt", attempt, "err", err.Error())
		time.Sleep(min(500*time.Millisecond, wait))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sjrouter:", err)
	os.Exit(1)
}
