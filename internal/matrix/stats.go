package matrix

import "sort"

// Characteristics summarizes a points-to matrix the way §2 characterizes the
// benchmark programs: equivalence ratios (Figure 1, top) and the hub-degree
// distribution (Figure 1, bottom).
type Characteristics struct {
	Pointers int // number of pointers (Table 2, #Pointers)
	Objects  int // number of objects (Table 2, #Objects)
	Edges    int // points-to facts

	PointerClasses int     // pointer equivalence classes
	ObjectClasses  int     // object equivalence classes
	PointerRatio   float64 // PointerClasses / Pointers (paper avg: 18.5%)
	ObjectRatio    float64 // ObjectClasses / Objects (paper avg: 83%)

	// HubQuantiles holds the hub degree at the given quantiles of the
	// object population (sorted descending), i.e. HubQuantiles[0.5] is the
	// median hub degree.
	HubQuantiles map[float64]float64
	// FracAboveThreshold is the fraction of objects whose hub degree
	// exceeds Threshold (the paper reports 70.2% above 5000 on average).
	Threshold          float64
	FracAboveThreshold float64
}

// DefaultHubThreshold is the hub-degree cutoff Figure 1 reports against.
const DefaultHubThreshold = 5000

// Characterize computes the §2 characteristics of pm. threshold ≤ 0 selects
// DefaultHubThreshold.
func Characterize(pm *PointsTo, threshold float64) Characteristics {
	if threshold <= 0 {
		threshold = DefaultHubThreshold
	}
	c := Characteristics{
		Pointers:     pm.NumPointers,
		Objects:      pm.NumObjects,
		Edges:        pm.Edges(),
		Threshold:    threshold,
		HubQuantiles: make(map[float64]float64),
	}
	pmt := pm.Transpose()
	_, c.PointerClasses = pm.EquivalenceClasses()
	_, c.ObjectClasses = pmt.EquivalenceClasses()
	if c.Pointers > 0 {
		c.PointerRatio = float64(c.PointerClasses) / float64(c.Pointers)
	}
	if c.Objects > 0 {
		c.ObjectRatio = float64(c.ObjectClasses) / float64(c.Objects)
	}
	deg := pm.HubDegrees(pmt)
	if len(deg) == 0 {
		return c
	}
	sorted := append([]float64(nil), deg...)
	sort.Float64s(sorted) // ascending
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		idx := int(q * float64(len(sorted)-1))
		c.HubQuantiles[q] = sorted[idx]
	}
	above := 0
	for _, d := range deg {
		if d > threshold {
			above++
		}
	}
	c.FracAboveThreshold = float64(above) / float64(len(deg))
	return c
}
