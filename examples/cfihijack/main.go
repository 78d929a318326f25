// CFI demo: a corrupted function-pointer table redirects an indirect call
// into the middle of a privileged function, skipping its permission check —
// and JCFI's forward-edge verification stops the transfer cold.
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/jcfi"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/rules"
)

// The victim dispatches through a writable function-pointer table; the
// attacker overwrites the slot with grant+10 — past the permission check at
// the top of grant (assembly gives us byte-precise control of the gadget).
const victim = `
.module victim
.entry _start
.needs libj.jef
.section .text
_start:
    ; --- attacker corrupts the dispatch table ---
    la r6, table
    la r7, grant
    add r7, 22          ; gadget: jump straight to grant's success path
    stq [r6+0], r7
    ; --- normal dispatch through the table ---
    la r6, table
    ldq r7, [r6+0]
    mov r1, 0           ; caller is NOT privileged
    calli r7
    mov r1, r0
    mov r0, 1
    syscall

; grant(privileged r1) -> 1 if access granted
grant:
    cmp r1, 1           ; 6 bytes  } the permission check
    je .ok              ; 5 bytes  } the attacker jumps past it:
    mov r0, 0           ; 10 bytes } .ok sits at grant+22
    ret                 ; 1 byte
.ok:
    mov r0, 1
    ret

.section .data
table:
    .quad grant
`

func run(protected bool) (int64, []diag.Violation, error) {
	mod, err := asm.Assemble(victim)
	if err != nil {
		return 0, nil, err
	}
	lj, err := libj.Module()
	if err != nil {
		return 0, nil, err
	}
	reg := loader.Registry{libj.Name: lj}
	jt := jcfi.New(jcfi.Config{Forward: true, Backward: true, HaltOnViolation: true})
	var tool core.Tool // stays nil (a native run) when unprotected
	var files map[string]*rules.File
	if protected {
		tool = jt
		if files, err = core.AnalyzeProgram(mod, reg, jt); err != nil {
			return 0, nil, err
		}
	}
	s, err := core.Load(mod, reg, tool, files, core.Options{MaxInstrs: 1_000_000})
	if err != nil {
		return 0, nil, err
	}
	err = s.Run()
	return s.M.ExitStatus, jt.Report.Violations, err
}

func main() {
	exit, _, err := run(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unprotected: exit %d — access GRANTED to an unprivileged caller\n", exit)

	_, violations, err := run(true)
	if err == nil {
		log.Fatal("expected JCFI to abort the hijacked transfer")
	}
	fmt.Printf("under JCFI:  execution aborted (%v)\n", err)
	for _, v := range violations {
		fmt.Printf("  %s\n", v)
	}
	var _ rules.Rule // (package kept imported for doc reference)
}
