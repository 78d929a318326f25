package main

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/anserve"
	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jlint"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/vm"
)

// maxInstrs bounds every execution, as the evaluation harness does.
const maxInstrs = 400_000_000

// The paper's dynamic configuration: each tool's hybrid scheme, JASan with
// proof-carrying elision, and the four tools composed.
var dynamicSchemes = []string{
	"jasan-hybrid", "jasan-elide", "jcfi-hybrid", "jmsan-hybrid", "jtsan-hybrid", "comprehensive",
}

// newTool returns a fresh instance of a scheme's tool, configured as the
// evaluation harness configures it so the simulated geomeans reproduce the
// published baseline.
func newTool(scheme string) core.Tool {
	switch scheme {
	case "jasan-hybrid":
		return jasan.New(jasan.Config{UseLiveness: true})
	case "jasan-elide":
		return jasan.New(jasan.Config{UseLiveness: true, Elide: true})
	case "jcfi-hybrid":
		return jcfi.New(jcfi.DefaultConfig)
	case "jcfi-narrow":
		return jcfi.New(jcfi.Config{Forward: true, Backward: true, Narrow: true})
	case "jmsan-hybrid":
		return jmsan.New(jmsan.Config{UseLiveness: true})
	case "jmsan-elide":
		return jmsan.New(jmsan.Config{UseLiveness: true, Elide: true})
	case "jtsan-hybrid":
		return jtsan.New(jtsan.Config{UseLiveness: true})
	case "jtsan-elide":
		return jtsan.New(jtsan.Config{UseLiveness: true, Elide: true})
	case "comprehensive":
		return core.NewMultiTool(
			jasan.New(jasan.Config{UseLiveness: true}),
			jmsan.New(jmsan.Config{UseLiveness: true}),
			jtsan.New(jtsan.Config{UseLiveness: true}),
			jcfi.New(jcfi.DefaultConfig))
	case "jlint":
		return jlint.New()
	}
	panic("benchmark: unknown scheme " + scheme)
}

// program is one spec workload built in set-up, with the native run its
// instrumented runs are checked against and its rule files per scheme.
type program struct {
	name   string
	main   *obj.Module
	reg    loader.Registry
	exit   int64
	out    []byte
	cycles uint64
	files  map[string]map[string]*rules.File // scheme → module → rule file
}

// buildSuite compiles the named spec workloads at scale 1, runs each
// natively for its reference output and analyzes it for every scheme
// through a fresh analysis service. Pre-analysis is set-up work: the
// measured rounds of the execution workloads spend no time in cc or in
// static analysis.
func buildSuite(names, schemes []string, workers int) ([]*program, error) {
	progs := make([]*program, len(names))
	errs := make([]error, len(names))
	pool(workers, len(names), func(_, i int) {
		progs[i], errs[i] = buildNative(names[i])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	svc := anserve.New(anserve.Config{Workers: workers})
	files := make([]map[string]*rules.File, len(names)*len(schemes))
	errs = make([]error, len(files))
	pool(workers, len(files), func(_, i int) {
		p, s := progs[i/len(schemes)], schemes[i%len(schemes)]
		files[i], errs[i] = svc.AnalyzeProgram(p.main, p.reg, newTool(s))
		if errs[i] != nil {
			errs[i] = fmt.Errorf("%s/%s: analyze: %w", p.name, s, errs[i])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, p := range progs {
		p.files = map[string]map[string]*rules.File{}
		for j, s := range schemes {
			p.files[s] = files[i*len(schemes)+j]
		}
	}
	return progs, nil
}

func buildNative(name string) (*program, error) {
	w := spec.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("no spec workload %q", name)
	}
	main, reg, err := w.Build(false)
	if err != nil {
		return nil, err
	}
	m, out := newMachine()
	proc := loader.NewProcess(m, reg)
	lm, err := proc.LoadProgram(main)
	if err != nil {
		return nil, fmt.Errorf("%s: native load: %w", name, err)
	}
	if err := m.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		return nil, fmt.Errorf("%s: native run: %w", name, err)
	}
	return &program{name: name, main: main, reg: reg,
		exit: m.ExitStatus, out: out.Bytes(), cycles: m.Cycles}, nil
}

// newMachine returns a machine with the default services, the instruction
// budget and its output captured.
func newMachine() (*vm.Machine, *bytes.Buffer) {
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = maxInstrs
	out := &bytes.Buffer{}
	m.Out = out
	return m, out
}

// checkNative compares an instrumented run's exit status and output with
// the program's native reference.
func (p *program) checkNative(m *vm.Machine, out []byte) error {
	if m.ExitStatus != p.exit {
		return fmt.Errorf("exit status %d, native %d", m.ExitStatus, p.exit)
	}
	if !bytes.Equal(out, p.out) {
		return fmt.Errorf("output differs from native (%d bytes, native %d)", len(out), len(p.out))
	}
	return nil
}
