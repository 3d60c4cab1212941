package runtime

import (
	"drsnet/internal/core"
	"drsnet/internal/failover"
	"drsnet/internal/routing"
)

// The built-in protocols of the paper's comparison, registered under
// the names the experiments, the scenario loader and cmd/drsim use.
// Additional protocols register themselves the same way — no
// experiment or command-line code needs to change.
func init() {
	Register(ProtoDRS, buildDRS)
	Register(ProtoReactive, buildReactive)
	Register(ProtoLinkState, buildLinkState)
	Register(ProtoStatic, buildStatic)
	Register(ProtoFailoverRotor, buildFailoverRotor)
	Register(ProtoFailoverArbor, buildFailoverArbor)
	Register(ProtoFailoverBounce, buildFailoverBounce)
}

// buildDRS constructs the paper's proactive Dynamic Routing System
// daemon (package core).
func buildDRS(ctx BuildContext) (routing.Router, error) {
	cfg := core.DefaultConfig()
	cfg.ProbeInterval = ctx.Spec.Tunables.ProbeInterval
	cfg.MissThreshold = ctx.Spec.Tunables.MissThreshold
	cfg.StaggerProbes = ctx.Spec.Tunables.StaggerProbes
	cfg.PreferLowLatency = ctx.Spec.Tunables.PreferLowLatency
	cfg.StrictLinkEvidence = ctx.Spec.Tunables.StrictLinkEvidence
	cfg.FlapDamping = ctx.Spec.Tunables.FlapDamping
	cfg.AdaptiveRTO = ctx.Spec.Tunables.AdaptiveRTO
	cfg.Overload = ctx.Spec.Tunables.Overload
	cfg.Incarnation = ctx.Incarnation
	cfg.Restore = ctx.Restore
	cfg.Trace = ctx.Spec.Trace
	return core.New(ctx.Transport, ctx.Clock, cfg)
}

// buildReactive constructs the RIP-like distance-vector baseline.
func buildReactive(ctx BuildContext) (routing.Router, error) {
	cfg := routing.DefaultReactiveConfig()
	cfg.AdvertiseInterval = ctx.Spec.Tunables.AdvertiseInterval
	cfg.RouteTimeout = ctx.Spec.Tunables.RouteTimeout
	cfg.Trace = ctx.Spec.Trace
	return routing.NewReactive(ctx.Transport, ctx.Clock, cfg)
}

// buildLinkState constructs the OSPF-like link-state baseline. Its
// hello period follows the reactive advertisement interval, as the
// experiments have always configured it.
func buildLinkState(ctx BuildContext) (routing.Router, error) {
	cfg := routing.DefaultLinkStateConfig()
	cfg.HelloInterval = ctx.Spec.Tunables.AdvertiseInterval
	cfg.Trace = ctx.Spec.Trace
	return routing.NewLinkState(ctx.Transport, ctx.Clock, cfg)
}

// buildStatic constructs the no-fault-tolerance strawman.
func buildStatic(ctx BuildContext) (routing.Router, error) {
	return routing.NewStatic(ctx.Transport, 0)
}

// failoverConfig maps the spec's tunables onto the static fast-failover
// family's knobs.
func failoverConfig(ctx BuildContext) failover.Config {
	return failover.Config{TTL: ctx.Spec.Tunables.FailoverTTL}
}

// buildFailoverRotor constructs the circular direct-rail variant.
func buildFailoverRotor(ctx BuildContext) (routing.Router, error) {
	return failover.NewRotor(ctx.Transport, ctx.Carrier, failoverConfig(ctx))
}

// buildFailoverArbor constructs the arborescence (precomputed relay
// tree) variant.
func buildFailoverArbor(ctx BuildContext) (routing.Router, error) {
	return failover.NewArbor(ctx.Transport, ctx.Carrier, failoverConfig(ctx))
}

// buildFailoverBounce constructs the header-rewriting variant.
func buildFailoverBounce(ctx BuildContext) (routing.Router, error) {
	return failover.NewBounce(ctx.Transport, ctx.Carrier, failoverConfig(ctx))
}
