package rcce

// Epoch support for the self-healing runtime layered on top of the
// hardened protocol (see internal/core). A membership change bumps the
// communicator epoch on every surviving core; adopting an epoch must
// neutralize all protocol state a previous, possibly half-finished
// collective attempt left behind:
//
//   - Chunk checksums are salted with the epoch, so a stale chunk staged
//     under the old epoch fails verification and is NACKed into a fresh
//     retransmission instead of being consumed as data.
//   - The per-peer sequence counters restart, so both sides of every
//     pairing expect the same numbering.
//   - The data-protocol flag bytes this core owns are wiped, so a stale
//     ACK or progress byte cannot fake a completed handshake (the
//     lost-ACK probe would otherwise trust it).
//
// The flag roles that seal an agreement (member release, epoch
// arrive/release) are deliberately NOT wiped here: they are in use while
// the adoption runs, and their token disciplines make stale values
// harmless (see internal/core/selfheal.go).

// SetEpoch installs communicator epoch e: it salts all hardened-protocol
// checksums with a mix of e and restarts the per-peer send/receive
// sequence counters and group-barrier generations. Epoch 0 is the
// unsalted legacy state a fresh UE starts in. Both sides of every pairing
// must adopt the same epoch before exchanging hardened traffic again;
// the self-healing runtime guarantees that with its epoch barrier.
func (u *UE) SetEpoch(e uint32) {
	u.epochSalt = e * 0x9E3779B1 // golden-ratio mix; 0 stays 0
	u.sendSeq.reset()
	u.recvSeq.reset()
	u.groupGen.reset()
}

// resetRoles lists the flag-line bytes wiped by ResetProtocolFlags: the
// data-protocol roles (sent/ready, MPB-direct double-buffer, checksum,
// progress), the group-barrier generations (restarted by SetEpoch), and
// the outcome-vote flags. The full-chip and tree barrier generations
// survive — they are monotonic and never reset — as do the roles that
// seal an agreement (member release, epoch arrive-release, the view
// bitmap and epoch word), which are live while an adoption runs.
var resetRoles = []int{
	FlagSent, FlagReady,
	FlagMPBSent0, FlagMPBSent1, FlagMPBReady0, FlagMPBReady1,
	FlagChk0, FlagChk0 + 1, FlagChk0 + 2, FlagChk0 + 3,
	FlagProgress,
	FlagGroupArrive, FlagGroupRelease,
	FlagVoteArrive, FlagVoteRelease,
}

// ResetProtocolFlags wipes, in this core's own MPB, the data-protocol
// flag bytes of every writer line (see resetRoles). Each dirty role is
// zeroed with its own single-byte flag write: a full-line write-back
// would race the peers' concurrent agreement-flag writes into the same
// line (a barrier arrive landing between this core's line read and its
// write-back would be silently erased). Peers wipe their own MPBs
// symmetrically during epoch adoption, which between them clears every
// flag a post-reconfiguration operation could read stale.
func (u *UE) ResetProtocolFlags() {
	line := u.core.ScratchBytes(u.core.Chip().Model.CacheLineBytes)
	for w := 0; w < u.NumUEs(); w++ {
		if w == u.ID() {
			continue
		}
		off := u.comm.FlagAddr(u.ID(), w, 0)
		u.core.MPBRead(off, line)
		for _, role := range resetRoles {
			if line[role] != 0 {
				u.core.SetFlag(off+role, 0)
			}
		}
	}
}
