package experiments

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/spec"
)

// rewriteSchemes are the bake-off's schemes: every Janitizer configuration
// with a static stage whose plans both AOT backends can consume.
var rewriteSchemes = []Scheme{JASanHybrid, JCFIHybrid, JMSanHybrid, Comprehensive}

// rewriteBackends is the bake-off's backend axis, the dynamic reference
// first.
var rewriteBackends = []Backend{BackendDynamic, BackendStatic, BackendHybrid}

// CheckParity runs scheme over the workloads on the dynamic, static and
// hybrid backends and demands that both rewritten runs reproduce the
// dynamic run's sanitizer verdicts, exit status and output bytes. Every
// cell is also held to the native run's exit status and output, so a hard
// error is a parity failure too. The error joins one error per divergent
// cell.
func CheckParity(scheme Scheme, workloads ...*spec.Workload) error {
	g, err := runGrid(workloads, []Scheme{scheme}, rewriteBackends, probeNone)
	if err != nil {
		return err
	}
	var errs []error
	for wi, w := range workloads {
		dyn := g.at(wi, 0, 0)
		if dyn.Failed {
			errs = append(errs, fmt.Errorf("%s: dynamic: %s", w.Name, dyn.Reason))
			continue
		}
		for bi := 1; bi < len(rewriteBackends); bi++ {
			res := g.at(wi, 0, bi)
			switch {
			case res.Failed:
				errs = append(errs, fmt.Errorf("%s: %s: %s", w.Name, res.Backend, res.Reason))
			case res.Violations != dyn.Violations:
				errs = append(errs, fmt.Errorf("%s: %s reports %d violations, dynamic %d",
					w.Name, res.Backend, res.Violations, dyn.Violations))
			case res.ExitStatus != dyn.ExitStatus:
				errs = append(errs, fmt.Errorf("%s: %s exits %d, dynamic %d",
					w.Name, res.Backend, res.ExitStatus, dyn.ExitStatus))
			case !bytes.Equal(res.Output, dyn.Output):
				errs = append(errs, fmt.Errorf("%s: %s output diverges from dynamic (%d vs %d bytes)",
					w.Name, res.Backend, len(res.Output), len(dyn.Output)))
			}
		}
	}
	return errors.Join(errs...)
}
