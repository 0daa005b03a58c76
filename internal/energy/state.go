package energy

// BatteryState is a Battery's mutable state (capacity is construction
// config), held inline by the battery and exported as-is for digital-twin
// snapshots.
type BatteryState struct {
	UsedJ float64
}

// ExportState captures the consumed energy.
func (b *Battery) ExportState() BatteryState { return b.st }

// RestoreState overwrites the consumed energy.
func (b *Battery) RestoreState(st BatteryState) { b.st = st }
