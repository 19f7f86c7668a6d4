package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/router"
)

// runRouteCommand implements `reform route`: a stateless query-router
// replica that follows an authoritative daemon's /v1/view/watch feed
// and serves the v1 data plane (POST /v1/query, POST /v1/query/batch,
// GET /v1/stats) from its local copy of the routing view. Any number
// of replicas can front one daemon; each answers byte-identically to
// the engine for the views it has synchronized.
func runRouteCommand(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", ":8081", "listen address")
	upstream := fs.String("upstream", "http://localhost:8080", "comma-separated daemon base URLs; the sync loop rotates to the next on failure")
	pollTimeout := fs.Duration("poll-timeout", 25*time.Second, "watch long-poll timeout requested upstream")
	retryAfter := fs.Duration("retry-after", time.Second, "backoff between failed syncs and the Retry-After advertised while unsynchronized")
	routeCache := fs.Int("route-cache", 4096, "view-epoch hot-query result cache entries (0 disables; answers are byte-identical either way)")
	fs.Parse(args)

	upstreams, err := splitURLs("upstream", *upstream)
	if err == nil && upstreams == nil {
		err = usagef("-upstream is required")
	}
	if err != nil {
		exitUsage(fs, err)
	}
	logger := log.New(os.Stderr, "reform-route ", log.LstdFlags)
	cacheEntries := *routeCache
	if cacheEntries == 0 {
		cacheEntries = -1 // flag 0 = off; Config 0 = default size
	}
	rt := router.New(router.Config{
		Upstreams:   upstreams,
		PollTimeout: *pollTimeout,
		RetryAfter:  *retryAfter,
		RouteCache:  cacheEntries,
		Logf:        logger.Printf,
	})
	rt.Start()

	httpSrv := newHTTPServer(*addr, rt.Handler())
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		logger.Printf("listening on %s, following %s", *addr, *upstream)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("listen: %v", err)
		}
	}()

	<-ctx.Done()
	logger.Printf("shutting down")
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	rt.Shutdown()
	logger.Printf("stopped")
}
