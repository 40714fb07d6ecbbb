package rcce

// Busy reports whether the UE's send and receive slots still hold a
// request in flight (tests read it after a wait that gave up).
func (u *UE) Busy() (send, recv bool) { return u.slots[ReqSend].busy(), u.slots[ReqRecv].busy() }
