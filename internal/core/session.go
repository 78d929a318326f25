package core

import (
	"io"

	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/vm"
)

// Options bounds and wires one run.
type Options struct {
	// MaxInstrs bounds the run (0 = unbounded).
	MaxInstrs uint64
	// Out receives program output (nil keeps the machine default).
	Out io.Writer
}

// Session is one program loaded into a fresh machine, ready to run: the
// single place the run recipe lives (machine, default services, budget,
// output sink, process, tool runtime wired before the load, entry address).
// Callers that observe the run — a cost-center profile, block coverage —
// set s.RT.DBM.Prof or s.M.BlockHook before Run.
type Session struct {
	M    *vm.Machine
	Proc *loader.Process
	// RT is the tool runtime; nil for a native session.
	RT *Runtime
	// Entry is main's entry point at its run-time address.
	Entry uint64
}

// Load loads main and its static dependency closure from reg into a fresh
// machine. A non-nil tool gets a runtime created before the load, so the
// module-load hook builds every module's rule table from files (Fig. 5); a
// nil tool makes a native session. Load errors are the loader's, unwrapped.
func Load(main *obj.Module, reg loader.Registry, tool Tool,
	files map[string]*rules.File, opts Options) (*Session, error) {

	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = opts.MaxInstrs
	if opts.Out != nil {
		m.Out = opts.Out
	}
	s := &Session{M: m, Proc: loader.NewProcess(m, reg)}
	if tool != nil {
		s.RT = NewRuntime(m, s.Proc, tool, files)
	}
	lm, err := s.Proc.LoadProgram(main)
	if err != nil {
		return nil, err
	}
	s.Entry = lm.RuntimeAddr(main.Entry)
	return s, nil
}

// Run executes the program from Entry: natively for a native session, else
// through the tool runtime (RuntimeInit, then the hybrid dynamic modifier).
func (s *Session) Run() error {
	if s.RT == nil {
		return s.M.Run(s.Entry)
	}
	return s.RT.Run(s.Entry)
}
