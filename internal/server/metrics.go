package server

// The /metrics endpoint: a Prometheus-style text rendering of every
// counter the daemon keeps — admission queue state, latency quantiles
// from the streaming histograms, the fail-open ladder mix, and the
// traffic of every cache (program dedup, program registry).
// Everything here reads atomics or takes short snapshots; scraping
// /metrics never blocks a launch.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"dopia/internal/faults"
	"dopia/internal/ocl"
	"dopia/internal/stats"
)

// ProgramID derives the wire ID of a program from its source text:
// "p-" plus the first 12 hex characters of the source's SHA-256.
// Identical sources always map to the identical ID, which is what makes
// POST /v1/programs idempotent and lets clients precompute IDs offline.
func ProgramID(source string) string {
	sum := sha256.Sum256([]byte(source))
	return "p-" + hex.EncodeToString(sum[:6])
}

// metricsWriter accumulates one text-format metrics page.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) counter(name, help string, v int64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func (m *metricsWriter) gaugeInt(name, help string, v int64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// labeled writes one sample with a single label, e.g.
// dopia_fallback_by_stage_total{stage="analysis"} 3.
func (m *metricsWriter) labeled(name, label, value string, v int64) {
	fmt.Fprintf(&m.b, "%s{%s=%q} %d\n", name, label, value, v)
}

// histogram renders a latency histogram as quantile gauges plus count
// and sum, e.g. dopia_exec_seconds{quantile="0.95"}.
func (m *metricsWriter) histogram(name, help string, s stats.HistSnapshot) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	if s.Total > 0 {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(&m.b, "%s{quantile=%q} %g\n", name, fmt.Sprintf("%g", q), s.Quantile(q))
		}
	}
	fmt.Fprintf(&m.b, "%s_sum %g\n%s_count %d\n", name, s.Sum, name, s.Total)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m metricsWriter

	// ---- daemon ----
	m.gauge("dopia_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	m.gaugeInt("dopia_queue_depth", "Launches waiting across the per-worker admission queues.", int64(s.queueLen()))
	m.gaugeInt("dopia_queue_capacity", "Total capacity of the per-worker admission queues.", int64(s.queueCap()))
	m.gaugeInt("dopia_inflight", "Launches currently executing on workers.", s.inflight.Load())
	m.gaugeInt("dopia_workers", "Size of the launch worker pool.", int64(s.cfg.Workers))
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	m.gaugeInt("dopia_draining", "1 while the daemon refuses new work and drains.", draining)
	ready := int64(0)
	if s.Ready() {
		ready = 1
	}
	m.gaugeInt("dopia_ready", "1 while /readyz reports ready (joined and not draining).", ready)

	s.mu.Lock()
	nSessions := int64(len(s.sessions))
	s.mu.Unlock()
	progs := s.programs.Stats()
	m.gaugeInt("dopia_sessions_active", "Live tenant sessions.", nSessions)
	m.counter("dopia_sessions_created_total", "Sessions ever created.", s.met.sessionsCreated.Load())
	m.counter("dopia_sessions_closed_total", "Sessions explicitly closed.", s.met.sessionsClosed.Load())
	m.gaugeInt("dopia_programs_registered", "Distinct programs in the registry.", int64(progs.Entries))
	m.counter("dopia_program_builds_total", "Program builds performed by this daemon.", s.met.programBuilds.Load())
	m.counter("dopia_program_evictions_total", "Program registry entries evicted (capacity, chaos or admin).", progs.Evictions+s.met.programEvictions.Load())

	// ---- cluster tier ----
	m.counter("dopia_sessions_exported_total", "Session snapshots served for replication/migration.", s.met.sessionsExported.Load())
	m.counter("dopia_sessions_imported_total", "Session snapshots imported from a peer.", s.met.sessionsImported.Load())
	m.counter("dopia_idem_replays_total", "Launches answered from the idempotency cache without re-execution.", s.met.idemReplays.Load())

	// ---- request outcomes ----
	m.counter("dopia_launches_total", "Launches completed successfully.", s.met.launchesOK.Load())
	m.counter("dopia_launch_errors_total", "Launches that failed with a client error.", s.met.launchErrors.Load())
	m.counter("dopia_rejected_total", "Requests refused by admission control (429).", s.met.rejected.Load())
	m.counter("dopia_deadline_expired_total", "Requests whose deadline lapsed in queue or mid-execution.", s.met.deadlineExpired.Load())
	m.counter("dopia_bad_requests_total", "Malformed or invalid requests.", s.met.badRequests.Load())
	m.gauge("dopia_sim_time_seconds_total", "Accumulated simulated co-execution seconds.", float64(s.met.simTimeNanos.Load())/1e9)

	// ---- wire ----
	m.counter("dopia_server_bytes_in_total", "Request bytes read off the wire (JSON and binary protocols).", s.met.bytesIn.Load())
	m.counter("dopia_server_bytes_out_total", "Response bytes written to the wire (JSON and binary protocols).", s.met.bytesOut.Load())

	// ---- online learner ----
	online := int64(0)
	if s.learner != nil {
		online = 1
	}
	m.gaugeInt("dopia_online_enabled", "1 while the closed-loop online learner is running.", online)
	if s.learner != nil {
		st := s.learner.Status()
		m.counter("dopia_online_samples_ingested_total", "Tenant launches the learner has learned from.", st.SamplesIngested)
		m.counter("dopia_online_sweeps_total", "Oracle configuration sweeps performed by the learner.", st.Sweeps)
		m.counter("dopia_online_sweep_errors_total", "Oracle sweeps that failed.", st.SweepErrors)
		m.counter("dopia_online_learned_total", "Launches answered with the memoized oracle argmax instead of the model's.", st.Learned)
		m.counter("dopia_online_explorations_total", "Launches whose DoP came from the bandit instead of the exploited configuration.", st.Explorations)
		m.gaugeInt("dopia_online_tenants", "Tenants with live learner state.", int64(len(st.Tenants)))
		if len(st.Tenants) > 0 {
			fmt.Fprintf(&m.b, "# HELP dopia_online_tenant_regret Cumulative exploration regret charged per tenant.\n# TYPE dopia_online_tenant_regret gauge\n")
			for _, ts := range st.Tenants {
				fmt.Fprintf(&m.b, "dopia_online_tenant_regret{tenant=%q} %g\n", ts.Tenant, ts.Regret)
			}
		}
	}

	// ---- latency ----
	m.histogram("dopia_queue_wait_seconds", "Admission-queue wait per launch.", s.met.queueWait.Snapshot())
	m.histogram("dopia_exec_seconds", "Execution time per launch (session lock to response).", s.met.exec.Snapshot())
	m.histogram("dopia_request_seconds", "End-to-end time per launch, admission to completion.", s.met.total.Snapshot())
	fmt.Fprintf(&m.b, "# HELP dopia_stage_seconds Per-stage request latency (decode, queue, exec, encode).\n# TYPE dopia_stage_seconds summary\n")
	s.met.stages.Each(func(stage string, snap stats.HistSnapshot) {
		if snap.Total > 0 {
			for _, q := range []float64{0.5, 0.95, 0.99} {
				fmt.Fprintf(&m.b, "dopia_stage_seconds{stage=%q,quantile=%q} %g\n", stage, fmt.Sprintf("%g", q), snap.Quantile(q))
			}
		}
		fmt.Fprintf(&m.b, "dopia_stage_seconds_sum{stage=%q} %g\ndopia_stage_seconds_count{stage=%q} %d\n", stage, snap.Sum, stage, snap.Total)
	})

	// ---- fail-open ladder ----
	fb := s.fw.Stats.Snapshot()
	m.counter("dopia_fallback_managed_total", "Launches served by full Dopia management (rung 1).", fb.Managed)
	m.counter("dopia_fallback_coexec_all_total", "Launches degraded to ALL co-execution (rung 2).", fb.CoExecAll)
	m.counter("dopia_fallback_plain_total", "Launches degraded to the plain runtime (rung 3).", fb.Plain)
	m.counter("dopia_model_discards_total", "Model predictions discarded for a launch.", fb.ModelDiscards)
	m.counter("dopia_panics_contained_total", "Panics contained at pipeline boundaries.", fb.Panics)
	m.counter("dopia_watchdog_timeouts_total", "Watchdog/deadline aborts.", fb.Timeouts)
	if len(fb.ByStage) > 0 {
		fmt.Fprintf(&m.b, "# HELP dopia_fallback_by_stage_total Degradations attributed to the causing pipeline stage.\n# TYPE dopia_fallback_by_stage_total counter\n")
		stages := make([]string, 0, len(fb.ByStage))
		for st := range fb.ByStage {
			stages = append(stages, string(st))
		}
		sort.Strings(stages)
		for _, st := range stages {
			m.labeled("dopia_fallback_by_stage_total", "stage", st, fb.ByStage[faults.Stage(st)])
		}
	}

	// ---- memoization stack ----
	pc := ocl.ProgCacheStats()
	m.counter("dopia_progcache_hits_total", "Compilations (program builds and workload kernels) served from the source-hash program cache.", pc.Hits)
	m.counter("dopia_progcache_misses_total", "Compilations that ran fresh.", pc.Misses)
	m.counter("dopia_progcache_errors_total", "Compilations that failed.", pc.Errors)
	m.counter("dopia_progcache_bypasses_total", "Cache reads skipped while fault injection was armed.", pc.Bypasses)
	m.counter("dopia_launch_profiles_reused_total", "Managed launches that reused the model their kernel stored for an identical earlier launch instead of running a sampled profile.", s.met.profilesReused.Load())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(m.b.String()))
}
