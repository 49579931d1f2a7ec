package prefetch

import "fmt"

// Kind names a prefetcher implementation for configuration purposes.
type Kind string

// The recognized prefetcher kinds. KindNone disables prefetching for a
// cache.
const (
	KindNone       Kind = "none"
	KindSequential Kind = "sequential"
	KindStride     Kind = "stride"
	KindMarkov     Kind = "markov"
	KindTIFS       Kind = "tifs"
	KindGHB        Kind = "ghb"
	KindBO         Kind = "bo"
	// KindAMPM is beyond the paper's evaluated set (Tables 3/4) but is
	// discussed in its related work; it is available for experiments.
	KindAMPM Kind = "ampm"
)

// InstructionKinds lists the instruction prefetchers the paper evaluates
// (Table 3), default first.
var InstructionKinds = []Kind{KindSequential, KindMarkov, KindTIFS}

// DataKinds lists the data prefetchers the paper evaluates (Table 4),
// default first.
var DataKinds = []Kind{KindStride, KindGHB, KindBO}

// Known reports whether New accepts kind. It lets configuration
// validation reject an unknown kind without building (and allocating the
// tables of) a prefetcher.
func Known(kind Kind) bool {
	switch kind {
	case KindNone, "", KindSequential, KindStride, KindMarkov, KindTIFS, KindGHB, KindBO, KindAMPM:
		return true
	}
	return false
}

// New instantiates a prefetcher of the given kind with paper-scale embedded
// table sizes. It returns (nil, nil) for KindNone.
func New(kind Kind) (Prefetcher, error) {
	switch kind {
	case KindNone, "":
		return nil, nil
	case KindSequential:
		return NewSequential(), nil
	case KindStride:
		return NewStride(512), nil
	case KindMarkov:
		return NewMarkov(256), nil
	case KindTIFS:
		return NewTIFS(1024), nil
	case KindGHB:
		return NewGHB(512), nil
	case KindBO:
		return NewBO(64), nil
	case KindAMPM:
		return NewAMPM(32), nil
	}
	return nil, fmt.Errorf("prefetch: unknown kind %q", kind)
}
