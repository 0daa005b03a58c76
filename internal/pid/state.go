package pid

// State is a Controller's mutable state, held inline by the controller
// and exported as-is for digital-twin snapshots. The configuration is not
// part of the state: restore targets a controller rebuilt from the same
// config.
type State struct {
	Setpoint float64
	Integral float64
	PrevMeas float64
	HasPrev  bool
	Frozen   bool
	LastOut  float64
}

// ExportState captures the controller's mutable state.
func (c *Controller) ExportState() State { return c.st }

// RestoreState overwrites the controller's mutable state.
func (c *Controller) RestoreState(st State) { c.st = st }
