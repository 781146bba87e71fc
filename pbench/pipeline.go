package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"pestrie"
)

// encodeProgram runs the pay-once half of the pipeline over one program
// text through the library: IR parse, Andersen solve, Pestrie build, and
// PES1 encode. It returns the analysed matrix and the persisted bytes, and
// records one span per layer under request req.
func encodeProgram(text string, tr *tracer, req int64) (*pestrie.Matrix, []byte, error) {
	t0 := time.Now()
	prog, err := pestrie.ParseProgram(strings.NewReader(text))
	if err != nil {
		return nil, nil, fmt.Errorf("parsing generated program: %w", err)
	}
	t1 := time.Now()
	res, err := pestrie.Analyze(prog, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("analysing generated program: %w", err)
	}
	t2 := time.Now()
	trie := pestrie.Build(res.PM, nil)
	t3 := time.Now()
	var buf bytes.Buffer
	if _, err := trie.WriteTo(&buf); err != nil {
		return nil, nil, fmt.Errorf("encoding index: %w", err)
	}
	t4 := time.Now()
	tr.add("parse", "pipeline", req, t0, t1)
	tr.add("solve", "pipeline", req, t1, t2)
	tr.add("build", "pipeline", req, t2, t3)
	tr.add("encode", "pipeline", req, t3, t4)
	return res.PM, buf.Bytes(), nil
}
