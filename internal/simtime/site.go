package simtime

import "fmt"

// This file holds the lazy diagnostics types. Blocking points and
// protocol-step notes used to be fmt.Sprintf strings built on every
// block and every chunk — pure waste on the hot path, since the strings
// are only ever read when a deadlock report is rendered. A WaitSite is
// a static label, and a Note captures the raw integers at block time (a
// plain struct assignment, no allocation) and defers all formatting to
// String(), which only runs inside Engine.deadlockError.

// WaitSite is the static label of a blocking point the process code
// names itself (WaitOn, WaitOnTimeout, Sleep). A wait parked by a
// continuation is described by the continuation instead (see
// Engine.deadlockError), so the scheduler formats no model concept.
type WaitSite struct {
	// Label must be a constant or long-lived string; building it
	// dynamically would defeat the lazy-formatting invariant.
	Label string
}

// Site wraps a static label as a wait site.
func Site(label string) WaitSite { return WaitSite{Label: label} }

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
