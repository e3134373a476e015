package core

import (
	"context"

	"dopia/internal/ml"
	"dopia/internal/sim"
)

// This file is the framework half of the online-learning loop: the hook
// an adaptive layer (internal/online) implements to route per-tenant
// models into decisions, override a decision for exploration, and
// receive every served launch back as a training signal. The framework
// stays ignorant of bandits, oracle sweeps, and retraining — it only
// knows how to ask "which model, which generation?" and to report what
// happened.

// Advisor is implemented by an online-learning manager attached with
// SetAdvisor. All methods must be safe for concurrent use; they are
// called on launch worker goroutines with no locks held.
type Advisor interface {
	// ModelFor returns the model that should score this tenant's launch
	// and its generation number. Generations identify immutable model
	// snapshots; a decision records the one that scored it
	// (Decision.ModelGen). Generation 0 is reserved for the framework's own
	// static Model field; advisors must return generations >= 1. A nil
	// model selects the ALL baseline.
	ModelFor(tenant string) (ml.Model, uint64)
	// Explore may override the exploited decision with an off-policy
	// configuration (ε-greedy exploration). It is consulted only for
	// decisions that used a model; returning ok=false keeps the
	// exploited config.
	Explore(tenant, kernel string, base ml.Features, dec Decision) (sim.Config, bool)
	// Observe delivers the completed launch as a training signal. It is
	// called after the functional execution succeeded and must not
	// block the launch path for long; heavy work (oracle sweeps,
	// retraining) should be deferred or done through s.Sweep, which is
	// memoized per executor and safe to call from any goroutine.
	Observe(s LaunchSample)
}

// LaunchSample is one served launch turned into a training signal.
type LaunchSample struct {
	Tenant string
	Kernel string
	// Base is the configuration-independent part of the Table 1 feature
	// vector (code features + launch geometry).
	Base ml.Features
	// Decision is what the framework executed, including the model
	// generation that scored it and whether exploration overrode it.
	Decision Decision
	// ObservedTime is the achieved simulated execution time in seconds,
	// inference overhead included.
	ObservedTime float64
	// Sweep simulates every DoP configuration of the machine for this
	// exact launch (timing only, no functional side effects) and
	// returns the per-config times — the ground-truth row the regret
	// budget and the tenant tables are built from. Results are
	// memoized inside the executor, so repeated calls are cheap.
	Sweep func() ([]ConfigTime, error)
}

// SetAdvisor attaches (or, with nil, detaches) the online-learning
// layer. Safe to call concurrently with launches: in-flight decisions
// finish on whatever model they already resolved.
func (f *Framework) SetAdvisor(a Advisor) {
	if a == nil {
		f.advisor.Store(nil)
		return
	}
	f.advisor.Store(&advisorRef{a: a})
}

// advisorRef boxes the interface so it can live in an atomic.Pointer.
type advisorRef struct{ a Advisor }

func (f *Framework) loadAdvisor() Advisor {
	if r := f.advisor.Load(); r != nil {
		return r.a
	}
	return nil
}

// tenantKey is the context key carrying the tenant identity of a launch.
type tenantKey struct{}

// WithTenant tags a context with the tenant identity that owns the
// launches executed under it. The serving layer sets it per session; an
// empty tenant (or an untagged context) resolves to the shared model.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom extracts the tenant identity from a context ("" if unset).
func TenantFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if t, ok := ctx.Value(tenantKey{}).(string); ok {
		return t
	}
	return ""
}

// modelFor resolves the (model, generation) pair scoring one launch.
// With no advisor attached the framework's static Model field is used
// under the reserved generation 0.
func (f *Framework) modelFor(tenant string) (ml.Model, uint64) {
	if a := f.loadAdvisor(); a != nil {
		return a.ModelFor(tenant)
	}
	return f.Model, 0
}
