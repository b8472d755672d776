// Command sccserved runs the streaming render service: an HTTP front end
// over the macro-pipeline runtime that accepts walkthrough jobs as JSON,
// streams rendered frames back as multipart PNG, answers simulate jobs
// with SimResult JSON, and exports live Prometheus metrics.
//
// Usage:
//
//	sccserved -addr :8344 -workers 2 -queue 8
//
// Endpoints:
//
//	POST /jobs     submit a job (see serve.JobSpec)
//	GET  /healthz  liveness + drain state
//	GET  /metrics  Prometheus text metrics
//
// On SIGTERM or SIGINT the server drains gracefully: admission stops
// (new jobs get 503, /healthz flips to 503 so load balancers route away),
// in-flight jobs and their streams run to completion bounded by
// -drain-timeout, then the process exits 0. If the graceful window expires
// with jobs still running (e.g. wedged in a retry loop), their contexts
// are cancelled so the deadline holds.
//
// Chaos mode (-chaos "seed=7,err=0.02,death=0.0005") injects a seeded,
// deterministic fault plan into every render job to exercise recovery in
// the production pipeline: retries, stall detection, and re-partitioning
// of a dead pipeline's work show up in /metrics and in the job summaries.
// The -breaker-threshold flag arms a circuit breaker that rejects
// submissions after repeated job failures until a cooldown probe succeeds.
//
// The -plan flag replaces the hard-coded stage layout with a
// profile-driven one: "profile" computes a cost-model plan once at
// startup, "online" additionally watches the per-stage busy balance and
// re-plans when it drifts (threshold set by -replan-drift). Jobs that pin
// their pipeline count keep byte-identical pixels under every plan.
//
// With -register the worker joins a sccgated fleet dynamically: it
// POSTs /register to the gateway once the listener is live, advertises
// -advertise (or its bound address), and heartbeats at the cadence the
// gateway grants so its lease never lapses while the process runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sccpipe/internal/faults"
	"sccpipe/internal/host"
	"sccpipe/internal/render"
	"sccpipe/internal/scene"
	"sccpipe/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sccserved: ")
	var (
		addr         = flag.String("addr", "127.0.0.1:8344", "listen address (use :0 for a random port)")
		workers      = flag.Int("workers", 2, "concurrent pipeline runs")
		queue        = flag.Int("queue", 8, "waiting room beyond running jobs (negative disables queuing)")
		stageWorkers = flag.Int("stage-workers", 0, "band-parallel workers per pipeline stage (0 = GOMAXPROCS default pool, 1 = serial stages)")
		noFuse       = flag.Bool("no-fuse", false, "disable stage fusion; run each filter as its own pipeline stage")
		tileRows     = flag.Int("tile-rows", 0, "row height of the tiled rasterizer's binning tiles (0 = auto; pixels identical for any value)")
		planMode     = flag.String("plan", "static", "stage-mapping mode: static (built-in layout), profile (cost-model plan at startup), online (re-plan on observed drift)")
		replanDrift  = flag.Float64("replan-drift", 0, "online re-plan threshold: relative stage busy-share drift (0 = planner default)")
		defTimeout   = flag.Duration("default-timeout", 60*time.Second, "deadline for jobs that do not set one")
		maxTimeout   = flag.Duration("max-timeout", 5*time.Minute, "upper bound on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs on shutdown")
		maxFrames    = flag.Int("max-frames", 2000, "per-job frame limit")
		cacheBytes   = flag.Int64("cache-bytes", 0, "render cache budget in bytes (0 = 256 MiB default, negative disables the cache)")
		objPath      = flag.String("obj", "", "serve a Wavefront OBJ model instead of the procedural city")
		mtlPath      = flag.String("mtl", "", "material library for -obj (Kd colors)")
		quiet        = flag.Bool("quiet", false, "suppress per-job log lines")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		chaos        = flag.String("chaos", "", `inject faults into every render job, e.g. "seed=7,err=0.02,death=0.0005,delay=0.01:5ms" (see faults.ParsePlan); empty disables`)
		stallTimeout = flag.Duration("stall-timeout", 0, "per-stage deadline for supervised runs (0 disables the stall watchdog)")
		breakerTrip  = flag.Int("breaker-threshold", 0, "consecutive job failures that trip the circuit breaker (0 disables it)")
		breakerCool  = flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker stays open before probing")
		register     = flag.String("register", "", "fleet gateway URL to register with at startup and heartbeat against (e.g. http://gateway:8440); empty disables")
		advertise    = flag.String("advertise", "", "base URL the gateway should reach this worker at (default: the bound listen address)")
		registerTTL  = flag.Duration("register-ttl", 0, "registration lease to request (0 = the gateway's default)")
		version      = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(host.BuildLine("sccserved"))
		return
	}
	// Unknown flag VALUES are rejected up front with usage and a nonzero
	// exit, never silently coerced to a default behavior.
	switch *planMode {
	case serve.PlanStatic, serve.PlanProfile, serve.PlanOnline:
	default:
		fmt.Fprintf(os.Stderr, "sccserved: unknown -plan mode %q (want %s, %s, or %s)\n",
			*planMode, serve.PlanStatic, serve.PlanProfile, serve.PlanOnline)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sccserved: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	// The profiler gets its own mux on its own listener so the debug
	// endpoints never share a port with the public job API.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	var tris []render.Triangle
	if *objPath != "" {
		var mats map[string]render.OBJColor
		if *mtlPath != "" {
			mf, err := os.Open(*mtlPath)
			if err != nil {
				log.Fatal(err)
			}
			mats, err = render.LoadMTL(mf)
			mf.Close()
			if err != nil {
				log.Fatal(err)
			}
		}
		of, err := os.Open(*objPath)
		if err != nil {
			log.Fatal(err)
		}
		tris, err = render.LoadOBJ(of, mats)
		of.Close()
		if err != nil {
			log.Fatal(err)
		}
		if len(tris) == 0 {
			log.Fatal("model has no triangles")
		}
		log.Printf("serving %d triangles from %s", len(tris), *objPath)
	} else {
		tris = scene.City(scene.DefaultConfig())
	}

	jobLog := log.Default()
	if *quiet {
		jobLog = nil
	}
	cfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		StageWorkers:   *stageWorkers,
		NoFuse:         *noFuse,
		TileRows:       *tileRows,
		Plan:           *planMode,
		ReplanDrift:    *replanDrift,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
		Limits:         serve.Limits{MaxFrames: *maxFrames},
		CacheBytes:     *cacheBytes,
		Scene:          tris,
		Log:            jobLog,
		Breaker:        serve.BreakerConfig{Threshold: *breakerTrip, Cooldown: *breakerCool},
	}
	if *chaos != "" {
		plan, err := faults.ParsePlan(*chaos)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Chaos = plan
		cfg.Recovery = &faults.RecoveryPolicy{StallTimeout: *stallTimeout, Seed: plan.Seed}
		log.Printf("chaos mode: %d fault rule(s), seed %d", len(plan.Rules), plan.Seed)
	} else if *stallTimeout > 0 {
		cfg.Recovery = &faults.RecoveryPolicy{StallTimeout: *stallTimeout}
	}
	s := serve.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	err := s.ListenAndServe(ctx, *addr, func(a net.Addr) {
		// The smoke harness parses this line to find a randomly bound port.
		log.Printf("listening on %s (%d workers, queue %d)", a, *workers, *queue)
		if *register != "" {
			// Join the fleet once the listener is live: the registrar
			// heartbeats until shutdown, so the gateway-side lease stays
			// renewed for exactly as long as this process serves.
			self := *advertise
			if self == "" {
				self = "http://" + a.String()
			}
			go func() {
				err := serve.RunRegistrar(ctx, serve.RegistrarConfig{
					Gateway: *register,
					Self:    self,
					TTL:     *registerTTL,
					Log:     log.Default(),
				})
				if err != nil {
					log.Printf("registrar: %v", err)
				}
			}()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Print("drained, exiting")
}
