package anserve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rewrite"
	"repro/internal/rules"
)

// RewriteCacheKey returns the content address of one (module, tool,
// placement) plan artifact. It extends the rule-cache key with a fixed
// "rewrite" domain, so a plan never aliases the module's rule file, and
// with the plan's placement assumption (load base + module ID): a plan is
// only valid under the deterministic loader placement it was captured with.
// The static and hybrid backends consume the same plan, so they share it.
func RewriteCacheKey(mod *obj.Module, tool core.Tool, base uint64, moduleID int32) string {
	h := sha256.New()
	mh := mod.Hash()
	h.Write(mh[:])
	h.Write([]byte{0})
	h.Write([]byte(core.ToolKey(tool)))
	h.Write([]byte{0})
	h.Write([]byte("rewrite"))
	var pin [12]byte
	binary.LittleEndian.PutUint64(pin[:8], base)
	binary.LittleEndian.PutUint32(pin[8:], uint32(moduleID))
	h.Write(pin[:])
	return hex.EncodeToString(h.Sum(nil))
}

// RewritePlans returns the rewrite plans for main's dependency closure,
// serving them from the content-addressed cache when possible.
//
// newTool builds a fresh tool instance for the capture run: plan capture
// initialises a scratch runtime, so the caller's instance (which will run
// the program) must not be reused for it. files are the closure's static
// rule files (from AnalyzeProgram).
func (s *Service) RewritePlans(main *obj.Module, reg loader.Registry,
	files map[string]*rules.File, newTool func() core.Tool) (map[string]*rewrite.Plan, error) {

	mods, err := loader.LddClosure(main, reg)
	if err != nil {
		return nil, fmt.Errorf("anserve: %w", err)
	}
	keyTool := newTool()

	// Plan placement assumptions depend on the loader's deterministic
	// base assignment, which capture reproduces; probing the cache needs
	// the same bases without a full capture, so compute them the same way
	// the capture's scratch process will.
	bases, ids, err := plannedPlacement(main, reg)
	if err != nil {
		return nil, err
	}

	plans := make(map[string]*rewrite.Plan, len(mods))
	missing := false
	for _, mod := range mods {
		if files[mod.Name] == nil {
			continue
		}
		key := RewriteCacheKey(mod, keyTool, bases[mod.Name], ids[mod.Name])
		raw, ok := s.CacheProbe(key)
		if !ok {
			missing = true
			break
		}
		p, err := rewrite.ReadPlan(raw)
		if err != nil || p.Validate() != nil {
			missing = true
			break
		}
		plans[mod.Name] = p
	}
	if !missing {
		return plans, nil
	}

	captured, err := rewrite.CapturePlans(main, reg, files, newTool())
	if err != nil {
		return nil, err
	}
	capturedNames := make([]string, 0, len(captured))
	for name := range captured {
		capturedNames = append(capturedNames, name)
	}
	sort.Strings(capturedNames)
	for _, name := range capturedNames {
		p := captured[name]
		mod := reg[name]
		if name == main.Name {
			mod = main
		}
		if mod == nil {
			continue
		}
		key := RewriteCacheKey(mod, keyTool, p.AssumedBase, p.ModuleID)
		s.CacheInsert(key, p.Marshal())
	}
	return captured, nil
}

// plannedPlacement computes the load base and module ID the deterministic
// loader will assign each closure module, by loading the program into a
// scratch native session that never runs. Bases feed the rewrite cache key,
// so a cache probe agrees with what a capture run would record.
func plannedPlacement(main *obj.Module, reg loader.Registry) (map[string]uint64, map[string]int32, error) {
	sess, err := core.Load(main, reg, nil, nil, core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("anserve: placement: %w", err)
	}
	bases := map[string]uint64{}
	ids := map[string]int32{}
	for _, lm := range sess.Proc.Modules {
		base := uint64(0)
		if lm.PIC {
			base = lm.LoadBase
		}
		bases[lm.Name] = base
		ids[lm.Name] = int32(lm.ID)
	}
	return bases, ids, nil
}
