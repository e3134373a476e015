package core

import (
	"context"

	"dopia/internal/ml"
)

// This file is the framework half of the online-learning loop: the hook
// an adaptive layer (internal/online) implements to answer a launch's
// decision from what it has measured, and to receive every served launch
// back as a training signal. The framework stays ignorant of bandits and
// oracle sweeps — it only asks whether the model's argmax stands and
// reports what happened.

// Advisor is implemented by an online-learning layer set as
// Framework.Advisor. Both methods must be safe for concurrent use; they
// are called on launch worker goroutines with no locks held.
type Advisor interface {
	// Advise sees a managed launch's decision once the framework's Model
	// has made it (a discarded model's ALL decision is not advised) and
	// returns the decision to execute: dec unchanged, or dec with another
	// Config and Learned or Explored set.
	Advise(tenant, kernel string, base ml.Features, dec Decision) Decision
	// Observe delivers the completed launch as a training signal. It is
	// called after the functional execution succeeded and must not
	// block the launch path for long; heavy work (oracle sweeps) should
	// be deferred or done through s.Sweep, which is memoized per executor
	// and safe to call from any goroutine.
	Observe(s LaunchSample)
}

// LaunchSample is one served launch turned into a training signal.
type LaunchSample struct {
	Tenant string
	Kernel string
	// Base is the configuration-independent part of the Table 1 feature
	// vector (code features + launch geometry).
	Base ml.Features
	// Sweep simulates every DoP configuration of the machine for this
	// exact launch (timing only, no functional side effects) and
	// returns the per-config times — the ground-truth row the learner
	// answers from and charges exploration against. Results are memoized
	// inside the executor, so repeated calls are cheap.
	Sweep func() ([]ConfigTime, error)
}

// tenantKey is the context key carrying the tenant identity of a launch.
type tenantKey struct{}

// WithTenant tags a context with the tenant identity that owns the
// launches executed under it. The serving layer sets it per session; an
// empty tenant (or an untagged context) is the anonymous tenant "".
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
