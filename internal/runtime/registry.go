// Package runtime is the unified cluster assembly layer: one
// declarative ClusterSpec (cluster shape, protocol name + tunables,
// application flows, fault schedule, seed, trace/metrics sinks) and
// one Build/Run path shared by every experiment harness, the scenario
// loader, the root drsnet facade and the examples.
//
// Protocols are pluggable: each routing implementation registers a
// constructor under a name (Register), and specs select one by that
// name. Adding a protocol therefore touches neither the experiment
// harnesses nor the command-line tools — they enumerate Protocols()
// instead of switching over a hardcoded enum.
//
// Determinism contract: Build/Run schedule simulator events in a
// fixed order — routers started in node order, then flows in spec
// order, then faults in spec order — so a spec always unfolds into
// the same simulation, and RunMany output is bit-identical for every
// worker count.
package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"drsnet/internal/clock"
	"drsnet/internal/core"
	"drsnet/internal/failover"
	"drsnet/internal/routing"
	"drsnet/internal/transport"
)

// Names of the built-in protocols (registered by this package).
const (
	ProtoDRS       = "drs"
	ProtoReactive  = "reactive"
	ProtoLinkState = "linkstate"
	ProtoStatic    = "static"
	// The static fast-failover family (package failover): precomputed
	// forwarding steered by local carrier sensing only.
	ProtoFailoverRotor  = "failover-rotor"
	ProtoFailoverArbor  = "failover-arbor"
	ProtoFailoverBounce = "failover-bounce"
)

// BuildContext is what a protocol constructor gets to work with: the
// node's transport and clock, plus the full spec for tunables and the
// trace sink.
type BuildContext struct {
	// Node is the local node index.
	Node int
	// Transport is the node's interface to the simulated network.
	Transport transport.Transport
	// Clock is the simulation clock.
	Clock clock.Clock
	// Spec is the cluster specification being built (tunables, trace).
	Spec *ClusterSpec
	// Carrier is the node's physical-layer carrier oracle (loss of
	// signal on its own ports), the only failure information the
	// static fast-failover family may use.
	Carrier failover.Sensor
	// Incarnation numbers this router's life (≥ 1) when the spec's
	// crash–restart lifecycle is enabled; zero otherwise. Each restart
	// of a node increments it.
	Incarnation uint32
	// Restore is the previous life's checkpoint for a warm restart
	// (DRS daemons only); nil for cold starts and first boots.
	Restore *core.Checkpoint
}

// Builder constructs one node's router for a registered protocol.
type Builder func(ctx BuildContext) (routing.Router, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Builder)
)

// Register makes a protocol constructor available to specs under name.
// It panics if the name is empty, the builder is nil, or the name is
// already taken — duplicate registration is always a programming
// error, and failing loudly at init time beats shadowing a protocol.
func Register(name string, b Builder) {
	if name == "" {
		panic("runtime: Register with empty protocol name")
	}
	if b == nil {
		panic(fmt.Sprintf("runtime: Register(%q) with nil builder", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("runtime: protocol %q registered twice", name))
	}
	registry[name] = b
}

// Deregister removes a registered protocol. It exists for tests that
// register stub protocols and must restore the registry afterwards;
// production code never deregisters.
func Deregister(name string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	delete(registry, name)
}

// Lookup returns the builder registered under name. The error for an
// unknown name lists every registered protocol.
func Lookup(name string) (Builder, error) {
	registryMu.RLock()
	b, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("runtime: unknown protocol %q (registered: %s)",
			name, strings.Join(Protocols(), ", "))
	}
	return b, nil
}

// Protocols returns the registered protocol names in sorted order —
// the canonical enumeration order of every compare-all-protocols
// table.
func Protocols() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}
