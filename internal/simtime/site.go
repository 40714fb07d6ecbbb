package simtime

import "fmt"

// This file holds the lazy diagnostics types. Blocking points and
// protocol-step notes used to be fmt.Sprintf strings built on every
// block and every chunk — pure waste on the hot path, since the strings
// are only ever read when a deadlock report is rendered. WaitSite and
// Note instead capture the raw integers at block time (a plain struct
// assignment, no allocation) and defer all formatting to String(),
// which only runs inside Engine.deadlockError.

// WaitKind classifies a blocking point so WaitSite can render it
// without carrying a formatted string.
type WaitKind uint8

// Wait-site kinds. The flag kinds mirror the scc package's wait
// primitives; WaitGeneric covers everything else via a static label.
const (
	// WaitNone is the zero value: no site recorded.
	WaitNone WaitKind = iota
	// WaitGeneric renders the static Label verbatim.
	WaitGeneric
	// WaitFlagEq: core Core blocked until MPB flag at Off equals Want
	// (the first of the values the wait accepts).
	WaitFlagEq
	// WaitFlagsAny: core Core blocked on Want flags at once, the first
	// of which lives at Off.
	WaitFlagsAny
)

// WaitSite is a compact, allocation-free description of a blocking
// point: the waiting core, the flag offset, the expected value and the
// kind of wait. It is formatted only when a deadlock report is
// actually rendered.
type WaitSite struct {
	Kind WaitKind
	// Core is the waiting core's ID (-1 when the waiter is not a core).
	Core int32
	// Off is the MPB flag offset being watched.
	Off int32
	// Want is the expected flag value (WaitFlagEq; of a wait that
	// accepts two values, the first) or the number of watched flags
	// (WaitFlagsAny).
	Want int32
	// Label is a static description for WaitGeneric sites. It must be a
	// constant or long-lived string; building it dynamically would
	// defeat the lazy-formatting invariant.
	Label string
}

// Site wraps a static label as a generic wait site.
func Site(label string) WaitSite { return WaitSite{Kind: WaitGeneric, Label: label} }

// String renders the site for a deadlock report. Deadlock reports must
// still name core, flag offset and expected value, exactly as the old
// eager strings did; TestDeadlockReportGolden pins the format.
func (s WaitSite) String() string {
	switch s.Kind {
	case WaitGeneric:
		return s.Label
	case WaitFlagEq:
		return fmt.Sprintf("core%02d flag@%d==%d", s.Core, s.Off, s.Want)
	case WaitFlagsAny:
		return fmt.Sprintf("core%02d any-flag (%d flags, first@%d)", s.Core, s.Want, s.Off)
	default:
		return "unknown"
	}
}

// Note is a deferred-format diagnostic: a static format string plus up
// to three integer arguments, rendered only when a deadlock report is
// built. The zero value means "no note".
type Note struct {
	// Format is a static fmt format string whose verbs must all consume
	// integers (or, with N == 0, a plain string rendered verbatim).
	Format string
	// Args holds the first N operands.
	Args [3]int64
	// N is how many of Args are live.
	N uint8
}

// NoteString wraps a static string as a note, rendered verbatim.
func NoteString(s string) Note { return Note{Format: s} }

// Note1, Note2 and Note3 build notes with fixed arities so that no
// variadic slice is allocated on the recording path.
func Note1(format string, a int64) Note {
	return Note{Format: format, Args: [3]int64{a}, N: 1}
}

// Note2 builds a two-operand note.
func Note2(format string, a, b int64) Note {
	return Note{Format: format, Args: [3]int64{a, b}, N: 2}
}

// Note3 builds a three-operand note.
func Note3(format string, a, b, c int64) Note {
	return Note{Format: format, Args: [3]int64{a, b, c}, N: 3}
}

// String renders the note for a deadlock report.
func (n Note) String() string {
	if n.N == 0 {
		return n.Format
	}
	var a [3]any
	for i := 0; i < int(n.N); i++ {
		a[i] = n.Args[i]
	}
	return fmt.Sprintf(n.Format, a[:n.N]...)
}

// IsZero reports whether the note is unset.
func (n Note) IsZero() bool { return n.Format == "" }
