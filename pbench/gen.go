package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// progShape sizes one generated pointer-IR program.
//
// Programs are built from modules: a module's functions call earlier
// functions of the same module and a shared library. Variables are typed
// the way C code is: struct pointers (s*) point to cells that hold value
// pointers (v*), and value pointers are never dereferenced. Typing and call locality are
// what keep the context-insensitive points-to relation sparse, as in real
// code; an untyped, uniformly random program merges every points-to set
// into one. The library allocates hub objects: every caller's result
// points to the same allocation site.
type progShape struct {
	Modules     int // independent groups of functions
	FuncsPerMod int // functions per module
	Structs     int // struct-pointer locals per function
	Values      int // value-pointer locals per function
	Stmts       int // statements per function after the locals
	Lib         int // library allocation wrappers shared by every module
}

// genProgram renders a random program of the given shape in the IR text
// format. The same rng state gives the same text.
func genProgram(rng *rand.Rand, sh progShape) string {
	var b strings.Builder
	for k := 0; k < sh.Lib; k++ {
		fmt.Fprintf(&b, "func lib%d(a0, a1) {\n  r = alloc L%d\n  return r\n}\n", k, k)
	}
	for m := 0; m < sh.Modules; m++ {
		for j := 0; j < sh.FuncsPerMod; j++ {
			genFunc(&b, rng, sh, m, j)
		}
	}
	b.WriteString("func main() {\n")
	for m := 0; m < sh.Modules; m++ {
		fmt.Fprintf(&b, "  s%d = alloc MainS%d\n  v%d = alloc MainV%d\n  r%d = call m%df%d(s%d, v%d)\n",
			m, m, m, m, m, m, sh.FuncsPerMod-1, m, m)
	}
	b.WriteString("}\n")
	return b.String()
}

// genFunc emits function j of module m. Parameter a0 is a struct pointer
// and a1 a value pointer; the result is a value pointer.
func genFunc(b *strings.Builder, rng *rand.Rand, sh progShape, m, j int) {
	fmt.Fprintf(b, "func m%df%d(a0, a1) {\n", m, j)
	site := 0
	alloc := func(dst string) {
		fmt.Fprintf(b, "  %s = alloc M%dF%dS%d\n", dst, m, j, site)
		site++
	}
	for i := 0; i < sh.Structs; i++ {
		if i%3 == 2 {
			fmt.Fprintf(b, "  s%d = a0\n", i)
		} else {
			alloc(fmt.Sprintf("s%d", i))
		}
	}
	for i := 0; i < sh.Values; i++ {
		if i%3 == 2 {
			fmt.Fprintf(b, "  v%d = a1\n", i)
		} else {
			alloc(fmt.Sprintf("v%d", i))
		}
	}
	s := func() string { return fmt.Sprintf("s%d", rng.IntN(sh.Structs)) }
	v := func() string { return fmt.Sprintf("v%d", rng.IntN(sh.Values)) }
	for i := 0; i < sh.Stmts; i++ {
		switch r := rng.IntN(20); {
		case r < 4:
			alloc(v())
		case r < 5:
			alloc(s())
		case r < 8:
			fmt.Fprintf(b, "  %s = %s\n", v(), v())
		case r < 9:
			fmt.Fprintf(b, "  %s = %s\n", s(), s())
		case r < 12:
			fmt.Fprintf(b, "  *%s = %s\n", s(), v())
		case r < 15:
			fmt.Fprintf(b, "  %s = *%s\n", v(), s())
		default:
			fmt.Fprintf(b, "  %s = call %s(%s, %s)\n", v(), callee(rng, sh, m, j), s(), v())
		}
	}
	fmt.Fprintf(b, "  return %s\n}\n", v())
}

// callee picks a call target: mostly an earlier function of the same
// module, otherwise a library wrapper.
func callee(rng *rand.Rand, sh progShape, m, j int) string {
	if j > 0 && rng.IntN(20) < 17 {
		return fmt.Sprintf("m%df%d", m, rng.IntN(j))
	}
	return fmt.Sprintf("lib%d", rng.IntN(sh.Lib))
}
