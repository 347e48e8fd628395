package mot

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/overlay"
)

// buildSimpleOverlay constructs the single-parent HS variant the concurrent
// simulator requires.
func buildSimpleOverlay(g *Graph, m *Metric, seed int64, sigma int) (overlay.Overlay, error) {
	hs, err := hier.Build(g, m, hier.Config{Seed: seed, SpecialParentOffset: sigma})
	if err != nil {
		return nil, fmt.Errorf("mot: building HS overlay: %w", err)
	}
	return hs, nil
}

func errUnknownFigure(id int) error {
	return fmt.Errorf("mot: unknown figure %d (the paper's evaluation figures are 4..15)", id)
}

func errFigureScale(scale float64) error {
	return fmt.Errorf("mot: figure scale %v outside (0,1]", scale)
}
