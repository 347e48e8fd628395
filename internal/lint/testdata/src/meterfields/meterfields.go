// Package meterfields exercises the meterfields rule with a local copy
// of the metered CostMeter shape (structs are matched by name, so the
// fixture cannot import the real one).
package meterfields

type CostMeter struct {
	PublishCost float64
	QueryCost   float64
	DroppedCost float64
}

// Add accumulates o into m but forgets DroppedCost.
func (m *CostMeter) Add(o CostMeter) {
	m.PublishCost += o.PublishCost
	m.QueryCost += o.QueryCost
}

// AbsorbMeter delegates to Add, which transfers the obligation there.
func AbsorbMeter(dst *CostMeter, o CostMeter) {
	dst.Add(o)
}

// CSVMeter is only checked under a config whose CSV spec points at this
// package (TestMeterCSVSpec); it forgets the dropped_cost column.
func CSVMeter() string {
	return "publish_cost,query_cost"
}
