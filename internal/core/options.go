package core

import (
	"time"

	"bubblezero/internal/fault"
	"bubblezero/internal/psychro"
	"bubblezero/internal/trace"
	"bubblezero/internal/wsn"
)

// Option configures NewSystem beyond the Config literal. Config-editing
// options are applied in argument order before validation, so later
// options win; structural options (fault plan, recorder) attach extra
// machinery to the assembled system.
type Option func(*sysOpts)

type sysOpts struct {
	cfgEdits []func(*Config)
	plan     *fault.Plan
	rec      *trace.Recorder

	// Per-instance overrides that deliberately do NOT edit the Config:
	// fleet members built from one Shared handle differ only in these, so
	// keeping them out of cfgEdits lets every member alias the handle's
	// single validated Config instead of carrying a private copy.
	seed    *uint64
	outdoor *psychro.State
}

func (o *sysOpts) edit(fn func(*Config)) {
	o.cfgEdits = append(o.cfgEdits, fn)
}

// WithFaultPlan schedules the plan's events on the system timeline and
// arms the stale-reading degradation watchdog. A nil or empty plan is a
// no-op: the run stays bit-identical to a plain NewSystem(cfg).
func WithFaultPlan(p *fault.Plan) Option {
	return func(o *sysOpts) { o.plan = p }
}

// WithRecorder substitutes a caller-owned trace recorder for the one the
// system would otherwise create, so several runs can be compared through
// one recorder namespace or a pre-configured recorder reused.
func WithRecorder(r *trace.Recorder) Option {
	return func(o *sysOpts) { o.rec = r }
}

// WithSeed overrides the seed driving every stochastic element, without
// editing (or copying) the shared Config.
func WithSeed(seed uint64) Option {
	return func(o *sysOpts) { o.seed = &seed }
}

// WithTxMode overrides Config.TxMode (adaptive vs fixed transmission).
func WithTxMode(mode wsn.TxMode) Option {
	return func(o *sysOpts) { o.edit(func(c *Config) { c.TxMode = mode }) }
}

// WithSensorNoise enables or disables datasheet sensor noise.
func WithSensorNoise(on bool) Option {
	return func(o *sysOpts) { o.edit(func(c *Config) { c.SensorNoise = on }) }
}

// WithLossFloor overrides the radio medium's packet-loss floor.
func WithLossFloor(p float64) Option {
	return func(o *sysOpts) { o.edit(func(c *Config) { c.Net.LossFloor = p }) }
}

// WithVentCapacityW overrides the 8 °C tank's chiller capacity.
func WithVentCapacityW(w float64) Option {
	return func(o *sysOpts) { o.edit(func(c *Config) { c.VentCapacityW = w }) }
}

// WithOutdoor overrides the outdoor boundary condition (dry-bulb and dew
// point, °C) the thermal model is initialised from. Like WithSeed it is a
// per-instance override, not a Config edit, so fleet members with varied
// climates still share one Config.
func WithOutdoor(tC, dewC float64) Option {
	return func(o *sysOpts) {
		st := psychro.NewStateDewPoint(tC, dewC, 0)
		o.outdoor = &st
	}
}

// WithTracePeriod overrides the recorder sampling period (0 disables
// tracing).
func WithTracePeriod(d time.Duration) Option {
	return func(o *sysOpts) { o.edit(func(c *Config) { c.TracePeriod = d }) }
}

// WithDegradeStaleAfter overrides how long a consumed input may go
// without a fresh broadcast before the watchdog degrades it.
func WithDegradeStaleAfter(d time.Duration) Option {
	return func(o *sysOpts) { o.edit(func(c *Config) { c.DegradeStaleAfter = d }) }
}

// WithConfigEdit applies an arbitrary Config mutation — the escape hatch
// for fields without a dedicated option.
func WithConfigEdit(fn func(*Config)) Option {
	return func(o *sysOpts) { o.edit(fn) }
}
