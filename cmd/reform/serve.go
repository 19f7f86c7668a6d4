package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// Limits every listener of this command sets (serve, route, cluster). A
// client gets readHeaderTimeout to finish its request headers and an
// idle keep-alive connection is dropped after idleTimeout, so slow or
// silent clients cannot pin connections and their goroutines for good.
// There is deliberately no ReadTimeout or WriteTimeout: the watch
// endpoints park a request for up to 55 s by design.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer returns the http.Server every subcommand listens with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// splitURLs parses a comma-separated list of base URLs (-join,
// -upstream, -router-addr), dropping blanks and trailing slashes. An
// empty flag yields nil; a non-empty one that names no URL is a usage
// error.
func splitURLs(flagName, raw string) ([]string, error) {
	var urls []string
	for _, u := range strings.Split(raw, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	if raw != "" && urls == nil {
		return nil, usagef("-%s %q names no URL", flagName, raw)
	}
	return urls, nil
}

// exitUsage reports a bad command line of fs's command, with its
// usage, and exits 2 as the flag package does.
func exitUsage(fs *flag.FlagSet, err error) {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	fs.Usage()
	os.Exit(2)
}

// runServeCommand implements `reform serve`: the overlay as an
// always-on HTTP daemon with ticker-driven reformulation, dynamic
// membership and snapshot-based restarts.
func runServeCommand(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	join := fs.String("join", "", "comma-separated upstream base URLs; runs this node as a follower replicating the leader's mutation log (empty: standalone leader)")
	alpha := fs.Float64("alpha", 1, "membership-cost weight α")
	epsilon := fs.Float64("epsilon", 0.001, "reformulation gain threshold ε")
	maxRounds := fs.Int("max-rounds", 300, "rounds per maintenance period")
	reformEvery := fs.Duration("reform", 30*time.Second, "maintenance period length (0 disables the ticker)")
	stepBudget := fs.Int("step-budget", 0, "work units (cluster scans + grants) per maintenance step while holding the mutation lock (0: default 32; negative: whole periods under one hold)")
	reformWorkers := fs.Int("reform-workers", 0, "phase-1 decide worker pool per maintenance step (0: one per CPU, 1: serial; outcomes are identical for every value)")
	snapshot := fs.String("snapshot", "", "snapshot file; loaded at startup when present, written periodically and on shutdown")
	snapshotEvery := fs.Duration("snapshot-every", 5*time.Minute, "periodic snapshot interval (needs -snapshot)")
	compactEvery := fs.Duration("compact-every", time.Minute, "workload-compaction check interval (0: only after maintenance periods and via POST /compact)")
	compactRatio := fs.Float64("compact-ratio", 0.5, "dead-QID fraction above which a check compacts (negative: compact whenever any dead query exists)")
	compactMin := fs.Int("compact-min", 64, "suppress threshold compactions below this many distinct queries")
	routeCache := fs.Int("route-cache", 4096, "view-epoch hot-query result cache entries (0 disables; answers are byte-identical either way)")
	fs.Parse(args)

	logger := log.New(os.Stderr, "reform-serve ", log.LstdFlags)
	// service.Config treats zero values as "use the paper default", so
	// an explicit -alpha 0 or -epsilon 0 would silently become 1 and
	// 0.001. Refuse it loudly rather than misconfigure.
	fs.Visit(func(f *flag.Flag) {
		if (f.Name == "alpha" && *alpha == 0) || (f.Name == "epsilon" && *epsilon == 0) {
			logger.Fatalf("-%s 0 is not supported (0 selects the default); pass a positive value", f.Name)
		}
		if f.Name == "compact-ratio" && *compactRatio == 0 {
			logger.Fatalf("-compact-ratio 0 is not supported (0 selects the default 0.5); pass a negative value to compact whenever any dead query exists")
		}
	})
	cfg := service.Config{
		Alpha:             *alpha,
		Epsilon:           *epsilon,
		MaxRounds:         *maxRounds,
		ReformEvery:       *reformEvery,
		StepBudget:        *stepBudget,
		ReformWorkers:     *reformWorkers,
		SnapshotPath:      *snapshot,
		SnapshotEvery:     *snapshotEvery,
		CompactEvery:      *compactEvery,
		CompactDeadRatio:  *compactRatio,
		CompactMinQueries: *compactMin,
		RouteCache:        *routeCache,
		Logf:              logger.Printf,
	}
	if *routeCache == 0 {
		cfg.RouteCache = -1 // flag 0 = off; Config 0 = default size
	}
	var err error
	if cfg.Join, err = splitURLs("join", *join); err != nil {
		exitUsage(fs, err)
	}

	var srv *service.Server
	if *snapshot != "" {
		if snap, err := service.LoadSnapshot(*snapshot); err == nil {
			restored, rerr := service.NewFromSnapshot(cfg, snap)
			if rerr != nil {
				logger.Fatalf("restore %s: %v", *snapshot, rerr)
			}
			srv = restored
			logger.Printf("restored %d peers from %s", len(snap.Peers), *snapshot)
		} else if !errors.Is(err, os.ErrNotExist) {
			logger.Fatalf("load %s: %v", *snapshot, err)
		}
	}
	if srv == nil {
		srv = service.New(cfg)
	}
	srv.Start()

	httpSrv := newHTTPServer(*addr, srv.Handler())
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		role := "leader"
		if len(cfg.Join) > 0 {
			role = fmt.Sprintf("follower of %s", strings.Join(cfg.Join, ", "))
		}
		logger.Printf("listening on %s as %s (reform every %s)", *addr, role, *reformEvery)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("listen: %v", err)
		}
	}()

	<-ctx.Done()
	logger.Printf("shutting down")
	// Wake parked long-poll watchers (they answer 204) before asking
	// the HTTP server to drain, or graceful shutdown would wait out
	// every watcher's full timeout.
	srv.BeginShutdown()
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		logger.Printf("final snapshot: %v", err)
	}
	fmt.Fprintln(os.Stderr, "reform-serve: stopped")
}
