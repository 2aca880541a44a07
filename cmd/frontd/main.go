// Command frontd serves the promise-verification pool over TCP: the
// network front-end (internal/front) in a standalone process. Clients
// connect with repro.DialFront (or any implementation of the framed
// protocol in internal/front/wire.go), authenticate with an API key,
// and submit registered workloads by name; verdicts stream back as the
// sessions classify.
//
// Usage:
//
//	frontd [-addr host:port] [-keys key=tenant[:weight],...]
//	       [-sessions N] [-queue N] [-mode full|ownership|unverified]
//	       [-admission] [-trace-cap N] [-metrics addr] [-drain dur]
//	       [-idle-timeout dur] [-write-timeout dur]
//	       [-chaos RATE] [-chaos-seed N] [-v]
//
// -keys declares the tenant map: each entry binds an API key to a
// fairness tenant, with an optional weighted-fair share ("gold-key=
// gold:3,bronze-key=bronze:1" gives gold 3x bronze's admission rate
// while both are backlogged). Multiple keys may share one tenant.
//
// -admission turns on deadline-aware admission control: once the pool
// has latency history, submissions whose deadline cannot cover the
// observed p99 queue wait plus p99 execution time are shed at the edge
// with reason "deadline" instead of being admitted to miss.
//
// -idle-timeout reaps connections that send no frame at all (not even
// a heartbeat ping) for the given duration; -write-timeout bounds every
// frame write so a slow or stuck client cannot wedge a verdict
// delivery (its verdicts are spilled and the connection cut instead).
//
// -chaos RATE injects seeded connection faults (resets, delays,
// partial writes, handshake drops, forced pool saturation) into the
// server's own I/O at the given per-operation probability — a
// standalone fault-injection mode for exercising client resilience
// against a real process. Never enable it on a front you care about.
//
// -metrics serves the process registry over HTTP (/metrics,
// /metrics.json, /debug/pprof) for the daemon's lifetime; the front's
// counters (front_submitted_total, front_rejected_total{reason},
// front_verdicts_total{verdict}) and the pool's latency windows all
// land there.
//
// On SIGINT/SIGTERM frontd drains gracefully: it stops accepting,
// tells connected clients (goaway), lets in-flight sessions finish for
// up to -drain, then cancels the rest — every accepted session still
// gets its verdict frame before the connections close. A second signal
// exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/serve"
)

// parseKeys parses "key=tenant[:weight],..." into the API-key map and
// the tenant weight map.
func parseKeys(spec string) (map[string]string, map[string]int, error) {
	keys := map[string]string{}
	weights := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, nil, fmt.Errorf("bad key spec %q (want key=tenant[:weight])", part)
		}
		key, tenant, weight := part[:eq], part[eq+1:], 0
		if i := strings.IndexByte(tenant, ':'); i >= 0 {
			w, err := strconv.Atoi(tenant[i+1:])
			if err != nil || w <= 0 {
				return nil, nil, fmt.Errorf("bad weight in %q", part)
			}
			tenant, weight = tenant[:i], w
		}
		if tenant == "" {
			return nil, nil, fmt.Errorf("empty tenant in %q", part)
		}
		if _, dup := keys[key]; dup {
			return nil, nil, fmt.Errorf("duplicate key %q", key)
		}
		keys[key] = tenant
		if weight > 0 {
			if prev, ok := weights[tenant]; ok && prev != weight {
				return nil, nil, fmt.Errorf("tenant %q given conflicting weights %d and %d", tenant, prev, weight)
			}
			weights[tenant] = weight
		}
	}
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("empty key spec %q", spec)
	}
	return keys, weights, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7045", "TCP listen address")
	keysSpec := flag.String("keys", "dev-key=default:1", `API keys: "key=tenant[:weight],..."`)
	sessions := flag.Int("sessions", 16, "max concurrently running sessions")
	queue := flag.Int("queue", 64, "per-tenant admission queue depth")
	modeFlag := flag.String("mode", "full", "verification mode: unverified, ownership, full")
	admission := flag.Bool("admission", false, "shed submissions whose deadline the observed p99 latency cannot meet")
	traceCap := flag.Int("trace-cap", 0, "event-log retention for traced sessions (0 = default)")
	metricsAddr := flag.String("metrics", "", `serve /metrics, /metrics.json and /debug/pprof on this address (e.g. "127.0.0.1:9100")`)
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM before in-flight sessions are cancelled")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections silent for this long (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-frame write deadline; slow clients get verdicts spilled and the connection cut (0 = 30s default, negative = none)")
	chaosRate := flag.Float64("chaos", 0, "inject seeded server-side connection faults at this per-operation probability (testing only)")
	chaosSeed := flag.Int64("chaos-seed", 7, "seed for -chaos fault injection")
	verbose := flag.Bool("v", false, "log tenant map and shutdown progress")
	flag.Parse()

	if *chaosRate < 0 || *chaosRate > 1 {
		fmt.Fprintf(os.Stderr, "frontd: -chaos must be in [0,1], got %v\n", *chaosRate)
		os.Exit(2)
	}

	keys, weights, err := parseKeys(*keysSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "frontd: %v\n", err)
		os.Exit(2)
	}
	mode, err := core.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "frontd: %v\n", err)
		os.Exit(2)
	}

	// The registry installs BEFORE the front is built so the pool's
	// latency windows land in it and the scrape endpoint reads the same
	// buckets deadline admission does.
	var metricsSrv *obs.Server
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.Install(reg)
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "frontd: metrics server: %v\n", err)
			os.Exit(1)
		}
		metricsSrv = srv
		fmt.Fprintf(os.Stderr, "frontd: metrics on http://%s/metrics\n", srv.Addr())
	}

	var injector *chaos.Injector
	if *chaosRate > 0 {
		injector = chaos.New(*chaosSeed).SetAll(*chaosRate)
		fmt.Fprintf(os.Stderr, "frontd: CHAOS ENABLED: injecting faults at rate %v (seed %d)\n", *chaosRate, *chaosSeed)
	}

	sopts := []serve.Option{
		serve.WithMaxSessions(*sessions),
		serve.WithQueueDepth(*queue),
		serve.WithRuntime(core.WithMode(mode)),
		serve.WithDeadlineAdmission(*admission),
		serve.WithChaos(injector),
	}
	for tenant, w := range weights {
		sopts = append(sopts, serve.WithTenantWeight(tenant, w))
	}
	f, err := front.New(front.Config{
		Addr:         *addr,
		Keys:         keys,
		Serve:        sopts,
		TraceCap:     *traceCap,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		Chaos:        injector,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "frontd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "frontd: serving on %s (sessions=%d queue=%d mode=%s admission=%v)\n",
		f.Addr(), *sessions, *queue, *modeFlag, *admission)
	if *verbose {
		for key, tenant := range keys {
			w := weights[tenant]
			if w == 0 {
				w = 1
			}
			fmt.Fprintf(os.Stderr, "frontd: key %q -> tenant %q (weight %d)\n", key, tenant, w)
		}
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "frontd: %v: draining (up to %v; signal again to abort)\n", got, *drain)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "frontd: second signal: exiting now")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	start := time.Now()
	drainErr := f.Shutdown(ctx)
	ps := f.Pool().Stats()
	fmt.Fprintf(os.Stderr, "frontd: drained in %v: %d sessions completed (%d clean, %d deadlock, %d canceled), %d rejected\n",
		time.Since(start).Round(time.Millisecond), ps.Completed, ps.Clean, ps.Deadlocks, ps.Canceled, ps.Rejected)
	if spilled := f.Spilled(); len(spilled) > 0 {
		fmt.Fprintf(os.Stderr, "frontd: %d verdicts spilled to slow or dead clients\n", len(spilled))
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "frontd: drain deadline hit; stragglers were cancelled (%v)\n", drainErr)
	}
}
