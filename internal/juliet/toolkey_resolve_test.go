package juliet

import (
	"repro/internal/core"
	"repro/internal/registry"
)

// detectorTool builds the tool RunCaseDiag runs for det.
func detectorTool(det Detector) (core.Tool, error) {
	e, err := registry.Lookup(detectors[det])
	if err != nil {
		return nil, err
	}
	return e.New(), nil
}
