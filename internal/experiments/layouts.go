package experiments

import (
	"fmt"

	"repro/internal/core"
)

// Layouts reconstruct the paper's exnodes. Offsets are expressed as
// fractions of the file size so the same shapes scale from the paper's
// 1 MB / 3 MB files down to fast test sizes.

// frag builds a FragmentSpec for depot name covering size*[numA/den,
// numB/den).
func (tb *Testbed) frag(name string, size, numA, numB, den int64) (core.FragmentSpec, error) {
	info, ok := tb.Infos[name]
	if !ok {
		return core.FragmentSpec{}, fmt.Errorf("experiments: unknown depot %q in layout", name)
	}
	lo := size * numA / den
	hi := size * numB / den
	return core.FragmentSpec{Depot: info, Offset: lo, Length: hi - lo}, nil
}

type fragSpec struct {
	depot      string
	numA, numB int64
	den        int64
}

func (tb *Testbed) buildLayout(size int64, copies [][]fragSpec) (core.Layout, error) {
	layout := make(core.Layout, len(copies))
	for r, frags := range copies {
		for _, f := range frags {
			fs, err := tb.frag(f.depot, size, f.numA, f.numB, f.den)
			if err != nil {
				return nil, err
			}
			layout[r] = append(layout[r], fs)
		}
	}
	return layout, nil
}

// test1Layout reconstructs the Test 1 exnode (paper Figure 5): a 1 MB file
// with five replicas partitioned into 2+4+5+7+9 = 27 segments across ten
// machines at UTK, UCSD, UCSB and Harvard, weighted toward Tennessee the
// way the paper's Figure 7 listing is.
func (tb *Testbed) test1Layout(size int64) (core.Layout, error) {
	copies := [][]fragSpec{
		// copy 0: 2 fragments, east coast + Santa Barbara.
		{{"HARVARD", 0, 1, 2}, {"UCSB1", 1, 2, 2}},
		// copy 1: 4 fragments across UTK.
		{{"UTK1", 0, 1, 4}, {"UTK2", 1, 2, 4}, {"UTK3", 2, 3, 4}, {"UTK4", 3, 4, 4}},
		// copy 2: 5 fragments across UCSD.
		{{"UCSD1", 0, 1, 5}, {"UCSD2", 1, 2, 5}, {"UCSD3", 2, 3, 5}, {"UCSD1", 3, 4, 5}, {"UCSD2", 4, 5, 5}},
		// copy 3: 7 fragments across UTK.
		{{"UTK5", 0, 1, 7}, {"UTK6", 1, 2, 7}, {"UTK1", 2, 3, 7}, {"UTK2", 3, 4, 7}, {"UTK3", 4, 5, 7}, {"UTK4", 5, 6, 7}, {"UTK5", 6, 7, 7}},
		// copy 4: 9 fragments, mostly UCSB.
		{{"UCSB1", 0, 1, 9}, {"UCSB2", 1, 2, 9}, {"UCSB3", 2, 3, 9}, {"UCSB1", 3, 4, 9}, {"UCSB2", 4, 5, 9}, {"UCSB3", 5, 6, 9}, {"UCSB2", 6, 7, 9}, {"HARVARD", 7, 8, 9}, {"UTK6", 8, 9, 9}},
	}
	return tb.buildLayout(size, copies)
}

// test2Copies is the Test 2 exnode shape (paper Figure 8): a 3 MB file,
// five copies, 21 segments, adding the UNC depot. Two complete copies live
// on the UTK campus ("most downloads could get the entire file without
// leaving the UTK campus"); the east-coast copy gives Harvard its first
// third locally with UNC holding the middle — matching the most common
// download paths of Figures 12-14.
var test2Copies = [][]fragSpec{
	// copy 0 (UTK, 5): boundaries at 60ths 0,12,22,30,48,60.
	{{"UTK1", 0, 12, 60}, {"UTK2", 12, 22, 60}, {"UTK3", 22, 30, 60}, {"UTK4", 30, 48, 60}, {"UTK5", 48, 60, 60}},
	// copy 1 (UTK, 5): 0,10,30,45,52,60.
	{{"UTK5", 0, 10, 60}, {"UTK6", 10, 30, 60}, {"UTK3", 30, 45, 60}, {"UTK1", 45, 52, 60}, {"UTK2", 52, 60, 60}},
	// copy 2 (UCSD + UCSB tail, 4): 0,10,30,45,60.
	{{"UCSD1", 0, 10, 60}, {"UCSD2", 10, 30, 60}, {"UCSD3", 30, 45, 60}, {"UCSB3", 45, 60, 60}},
	// copy 3 (UCSB, 4): 0,15,32,46,60.
	{{"UCSB3", 0, 15, 60}, {"UCSB1", 15, 32, 60}, {"UCSB2", 32, 46, 60}, {"UCSB1", 46, 60, 60}},
	// copy 4 (east coast, 3): 0,10,35,60.
	{{"HARVARD", 0, 10, 60}, {"UNC", 10, 35, 60}, {"UCSB3", 35, 60, 60}},
}

// test2Layout reconstructs the Test 2 exnode.
func (tb *Testbed) test2Layout(size int64) (core.Layout, error) {
	return tb.buildLayout(size, test2Copies)
}

// test3DeleteIndices returns the 12 (of 21) mapping indices deleted for
// Test 3 (paper Figure 15): 33-67 % of each replica eliminated, leaving
// the first sixth of the file available only on UCSB3 and HARVARD, and
// every extent still reachable from at least two locations.
//
// Indices follow the mapping order produced by UploadLayout over
// test2Copies (copy 0 first, fragments in order).
func test3DeleteIndices() []int {
	return []int{
		0, 1, 2, // copy 0: UTK1, UTK2, UTK3 (keep UTK4[30,48), UTK5[48,60))
		5, 8, 9, // copy 1: UTK5, UTK1, UTK2 (keep UTK6[10,30), UTK3[30,45))
		10, 12, // copy 2: UCSD1, UCSD3 (keep UCSD2[10,30), UCSB3[45,60))
		16, 17, // copy 3: UCSB2[32,46) and UCSB1[46,60) (keep UCSB3[0,15), UCSB1[15,32))
		19, 20, // copy 4: UNC, UCSB3 (keep HARVARD[0,10))
	}
}

// Test2SegmentCount is the number of segments in the Test 2 exnode.
const Test2SegmentCount = 21

// Test1SegmentCount is the number of segments in the Test 1 exnode.
const Test1SegmentCount = 27
