package mot

import (
	"fmt"

	"repro/internal/mobility"
	"repro/internal/stun"
	"repro/internal/treedir"
	"repro/internal/zdat"
)

// Directory is the common surface of the MOT tracker and the baseline
// trackers, for side-by-side comparisons.
type Directory interface {
	Publish(o ObjectID, at NodeID) error
	Move(o ObjectID, to NodeID) error
	Query(from NodeID, o ObjectID) (NodeID, float64, error)
	Location(o ObjectID) (NodeID, bool)
	Meter() CostMeter
	LoadByNode() []int
}

var _ Directory = (*Tracker)(nil)

// EdgeRates is the detection-rate traffic knowledge the traffic-conscious
// baselines consume: how often objects cross each sensor adjacency.
type EdgeRates = map[mobility.EdgeKey]float64

// NewSTUN builds the STUN baseline (Kung & Vlah 2003): a Drain-And-Balance
// hierarchy constructed from the given detection rates, with sink-initiated
// queries. Unlike MOT it is traffic-conscious — it needs rates up front.
func NewSTUN(g *Graph, m *Metric, rates EdgeRates) (Directory, error) {
	tr, err := stun.BuildTree(g, m, rates)
	return treeDirectory(tr, err, m, treedir.Config{SinkQueries: true})
}

// ZDATOptions configures the Z-DAT baseline.
type ZDATOptions struct {
	// ZoneDepth is the recursive quadrant-division depth (4^depth zones).
	ZoneDepth int
	// Shortcuts enables the shortcuts query variant (Liu et al. 2008).
	Shortcuts bool
	// Sink is the tree root sensor. Set it to mot.Undefined for the
	// metric center (the natural sink placement); note that the zero
	// value selects sensor 0. Any other sensor outside g is an error.
	Sink NodeID
}

// NewZDAT builds the Z-DAT baseline (Lin et al. 2006): a zone-based
// deviation-avoidance spanning tree over the detection rates.
func NewZDAT(g *Graph, m *Metric, rates EdgeRates, opt ZDATOptions) (Directory, error) {
	tr, err := zdat.BuildTree(g, m, rates, zdat.Config{ZoneDepth: opt.ZoneDepth, Sink: opt.Sink})
	return treeDirectory(tr, err, m, treedir.Config{Shortcuts: opt.Shortcuts})
}

// treeDirectory wraps a built baseline tree in its directory, or passes on
// the build's error; on any error the Directory is nil, never a nil
// *treedir.Directory inside a non-nil interface.
func treeDirectory(tr *treedir.Tree, err error, m *Metric, cfg treedir.Config) (Directory, error) {
	var d *treedir.Directory
	if err == nil {
		d, err = treedir.New(tr, m, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("mot: %w", err)
	}
	return d, nil
}
