package core

// CostMeter accumulates communication costs (total shortest-path distance
// traversed by messages, the paper's cost model) for each operation kind,
// alongside the optimal costs, so cost ratios can be reported exactly as in
// §8.
type CostMeter struct {
	// Publish.
	PublishCost float64
	PublishOps  int

	// Maintenance (insert + delete travel). Optimal cost of one move is
	// the distance between the old and new proxies.
	MaintCost    float64
	MaintOptimal float64
	MaintOps     int

	// Query (search walk from requester to proxy). Optimal cost is the
	// requester-to-proxy distance.
	QueryCost    float64
	QueryOptimal float64
	QueryOps     int

	// SpecialCost is the SDL registration/cleanup message cost, reported
	// separately unless Config.CountSpecialParentCost folds it into
	// MaintCost (the paper's analysis excludes it; §4 preamble).
	SpecialCost float64

	// LBRouteCost is the extra de Bruijn intra-cluster routing distance
	// paid when load balancing distributes entries (§5, Corollary 5.2).
	LBRouteCost float64

	// RecoveryCost is the message cost of fault recovery: re-stamping a
	// damaged object's home chain after a station crash or a lost
	// maintenance operation (the §7 fine-grained adaptability path). It is
	// reported separately so fault-free cost ratios stay comparable.
	RecoveryCost float64
	RecoveryOps  int

	// Sampled exact re-metering (Config.ExactSampleEvery). In oracle mode
	// every metered distance is an estimate; a seeded sample of move and
	// query operations re-measures its distance terms with exact
	// point-to-point searches, giving an unbiased exact cost ratio over
	// the sample (SampledMaintRatio/SampledQueryRatio) plus the est/exact
	// gap that audits the oracle's real overshoot. The Est fields
	// accumulate the oracle-reported distance terms of exactly the sampled
	// operations, so Est and Exact are directly comparable. LB-routing and
	// special-parent surcharges are not re-measured (they are metered
	// separately anyway).
	SampledMaintOps       int
	SampledMaintCostEst   float64
	SampledMaintCostExact float64
	SampledMaintOptEst    float64
	SampledMaintOptExact  float64
	SampledQueryOps       int
	SampledQueryCostEst   float64
	SampledQueryCostExact float64
	SampledQueryOptEst    float64
	SampledQueryOptExact  float64

	// Per-operation ratio sums (mean-of-ratios). The aggregate ratios
	// above weight operations by their optimal cost; the figure-style
	// means below weight each operation equally, which is what exposes a
	// distance-insensitive algorithm (STUN pays a sink round trip even
	// for queries whose optimum is one hop).
	MaintRatioSum float64
	MaintRatioOps int
	QueryRatioSum float64
	QueryRatioOps int
}

// MaintRatio returns the maintenance cost ratio C(E)/C*(E); 0 if no
// maintenance cost has been accrued.
func (c CostMeter) MaintRatio() float64 {
	if c.MaintOptimal == 0 {
		return 0
	}
	return c.MaintCost / c.MaintOptimal
}

// QueryRatio returns the query cost ratio; 0 if no query cost accrued.
func (c CostMeter) QueryRatio() float64 {
	if c.QueryOptimal == 0 {
		return 0
	}
	return c.QueryCost / c.QueryOptimal
}

// MaintMeanRatio returns the mean of per-operation maintenance ratios.
func (c CostMeter) MaintMeanRatio() float64 {
	if c.MaintRatioOps == 0 {
		return 0
	}
	return c.MaintRatioSum / float64(c.MaintRatioOps)
}

// QueryMeanRatio returns the mean of per-operation query ratios.
func (c CostMeter) QueryMeanRatio() float64 {
	if c.QueryRatioOps == 0 {
		return 0
	}
	return c.QueryRatioSum / float64(c.QueryRatioOps)
}

// AddMaintSample records one maintenance operation's cost against its
// optimal cost, updating both the aggregate and the per-operation ratio.
func (c *CostMeter) AddMaintSample(cost, optimal float64) {
	c.MaintCost += cost
	c.MaintOptimal += optimal
	c.MaintOps++
	if optimal > 0 {
		c.MaintRatioSum += cost / optimal
		c.MaintRatioOps++
	}
}

// AddQuerySample records one query's cost against its optimal cost.
// Queries issued at the proxy itself (optimal 0) count as operations but
// contribute to neither ratio.
func (c *CostMeter) AddQuerySample(cost, optimal float64) {
	c.QueryOps++
	if optimal > 0 {
		c.QueryCost += cost
		c.QueryOptimal += optimal
		c.QueryRatioSum += cost / optimal
		c.QueryRatioOps++
	}
}

// SampledMaintRatio returns the exact maintenance cost ratio over the
// sampled operations; 0 if nothing was sampled.
func (c CostMeter) SampledMaintRatio() float64 {
	if c.SampledMaintOptExact == 0 {
		return 0
	}
	return c.SampledMaintCostExact / c.SampledMaintOptExact
}

// SampledQueryRatio returns the exact query cost ratio over the sampled
// operations; 0 if nothing was sampled.
func (c CostMeter) SampledQueryRatio() float64 {
	if c.SampledQueryOptExact == 0 {
		return 0
	}
	return c.SampledQueryCostExact / c.SampledQueryOptExact
}

// SampledOverestimate returns the factor by which the oracle's estimated
// distance terms exceed their exact re-measurements over all sampled
// operations (1 = no overshoot, bounded by the oracle's stretch); 0 if
// nothing was sampled.
func (c CostMeter) SampledOverestimate() float64 {
	exact := c.SampledMaintCostExact + c.SampledQueryCostExact
	if exact == 0 {
		return 0
	}
	return (c.SampledMaintCostEst + c.SampledQueryCostEst) / exact
}

// Add accumulates another meter into c.
func (c *CostMeter) Add(o CostMeter) {
	c.PublishCost += o.PublishCost
	c.PublishOps += o.PublishOps
	c.MaintCost += o.MaintCost
	c.MaintOptimal += o.MaintOptimal
	c.MaintOps += o.MaintOps
	c.QueryCost += o.QueryCost
	c.QueryOptimal += o.QueryOptimal
	c.QueryOps += o.QueryOps
	c.SpecialCost += o.SpecialCost
	c.LBRouteCost += o.LBRouteCost
	c.RecoveryCost += o.RecoveryCost
	c.RecoveryOps += o.RecoveryOps
	c.SampledMaintOps += o.SampledMaintOps
	c.SampledMaintCostEst += o.SampledMaintCostEst
	c.SampledMaintCostExact += o.SampledMaintCostExact
	c.SampledMaintOptEst += o.SampledMaintOptEst
	c.SampledMaintOptExact += o.SampledMaintOptExact
	c.SampledQueryOps += o.SampledQueryOps
	c.SampledQueryCostEst += o.SampledQueryCostEst
	c.SampledQueryCostExact += o.SampledQueryCostExact
	c.SampledQueryOptEst += o.SampledQueryOptEst
	c.SampledQueryOptExact += o.SampledQueryOptExact
	c.MaintRatioSum += o.MaintRatioSum
	c.MaintRatioOps += o.MaintRatioOps
	c.QueryRatioSum += o.QueryRatioSum
	c.QueryRatioOps += o.QueryRatioOps
}
