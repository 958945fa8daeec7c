// Package faultinject provides deterministic, seedable fault points for
// chaos-testing the query path. Production code calls Hit(point) at
// well-known places (storage scans, cache gets, exec workers, join
// probes); when injection is disabled — the default — Hit is a single
// atomic load. Tests arm a point with a Spec (inject an error, a panic,
// or a delay, optionally after N hits and for at most M firings) and
// assert that every injected fault surfaces as a clean error or a
// fallback, never a crash or a wrong answer.
//
// The registry is process-global and guarded by a mutex, so armed points
// behave deterministically even under `go test -race` with parallel
// engine workers. Seedable chaos plans (PlanFromSeed) derive the point,
// kind and skip-count from a math/rand PRNG so a failing run is
// reproducible from its seed alone.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the behaviour of an armed fault point.
type Kind int

const (
	// KindError makes Hit return an error.
	KindError Kind = iota
	// KindPanic makes Hit panic.
	KindPanic
	// KindDelay makes Hit sleep (for cancellation/timeout testing).
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Registered fault points compiled into the engine.
const (
	// PointStorageScan fires in the base-table scan/filter step.
	PointStorageScan = "storage.scan"
	// PointCacheGet fires inside aggregation-state cache lookups.
	PointCacheGet = "cache.get"
	// PointExecWorker fires in every parallel aggregation worker.
	PointExecWorker = "exec.worker"
	// PointExecJoin fires at the start of each hash join.
	PointExecJoin = "exec.join"
	// PointNetAccept fires in the server's connection-accept path: an
	// error tears the just-accepted connection down, a delay stalls the
	// accept loop.
	PointNetAccept = "net.accept"
	// PointNetRead fires on every server-side connection read: an error
	// models a torn client connection mid-request, a delay a slow
	// (stalling) client.
	PointNetRead = "net.read"
	// PointNetWrite fires on every server-side connection write: an
	// error models a client that disconnected mid-response, a delay a
	// congested downlink.
	PointNetWrite = "net.write"
	// PointNetStall fires before each streamed result frame is written:
	// an error truncates the stream (a torn response the client must
	// detect via length framing), a delay stalls it mid-stream.
	PointNetStall = "net.stall"
	// PointWindowEvict fires each time a sliding window evicts expired
	// rows (once per eviction step, not per state): an error aborts the
	// windowed query or fails the subscription cleanly.
	PointWindowEvict = "window.evict"
	// PointWindowEmit fires before each window emission is computed: an
	// error models a failure mid-stream — one-shot queries abort, live
	// subscriptions surface it via Err() after the result channel closes.
	PointWindowEmit = "window.emit"
)

// Points lists every registered fault point.
func Points() []string {
	return []string{
		PointStorageScan, PointCacheGet, PointExecWorker, PointExecJoin,
		PointNetAccept, PointNetRead, PointNetWrite, PointNetStall,
		PointWindowEvict, PointWindowEmit,
	}
}

// ErrInjected is the sentinel wrapped by injected errors.
var ErrInjected = errors.New("injected fault")

// Spec configures an armed fault point.
type Spec struct {
	Kind Kind
	// After skips the first After hits before firing.
	After int
	// Times bounds how often the point fires (0 = every hit after After).
	Times int
	// Delay is the sleep for KindDelay (default 50ms).
	Delay time.Duration
	// Err overrides the injected error for KindError.
	Err error
}

type point struct {
	spec  Spec
	hits  int
	fired int
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	points  = map[string]*point{}
)

// Arm installs a spec at a point and enables injection.
func Arm(name string, s Spec) {
	mu.Lock()
	points[name] = &point{spec: s}
	mu.Unlock()
	enabled.Store(true)
}

// Disarm removes a single point (injection stays enabled for others).
func Disarm(name string) {
	mu.Lock()
	delete(points, name)
	mu.Unlock()
}

// Reset disarms every point and disables injection.
func Reset() {
	enabled.Store(false)
	mu.Lock()
	points = map[string]*point{}
	mu.Unlock()
}

// Enabled reports whether injection is globally on.
func Enabled() bool { return enabled.Load() }

// Hit is called by production code at a fault point. With injection
// disabled it costs one atomic load. With the point armed it returns an
// error, panics, or sleeps according to the spec.
func Hit(name string) error {
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	p.hits++
	if p.hits <= p.spec.After || (p.spec.Times > 0 && p.fired >= p.spec.Times) {
		mu.Unlock()
		return nil
	}
	p.fired++
	spec := p.spec
	mu.Unlock()
	switch spec.Kind {
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", name))
	case KindDelay:
		d := spec.Delay
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		time.Sleep(d)
		return nil
	default:
		if spec.Err != nil {
			return spec.Err
		}
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
}

// Fired reports how many times a point has fired.
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.fired
	}
	return 0
}

// HitCount reports how many times a point has been reached (fired or not).
func HitCount(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

// PlanFromSeed deterministically arms one point with one kind derived
// from the seed and returns the choice, so chaos harnesses can sweep
// seeds and reproduce any failure.
func PlanFromSeed(seed int64) (string, Spec) {
	rng := rand.New(rand.NewSource(seed))
	pts := Points()
	name := pts[rng.Intn(len(pts))]
	spec := Spec{
		Kind:  Kind(rng.Intn(3)),
		After: rng.Intn(3),
		Delay: time.Duration(1+rng.Intn(5)) * time.Millisecond,
	}
	Arm(name, spec)
	return name, spec
}
