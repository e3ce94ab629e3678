package backend

import (
	"fmt"

	"cdna/internal/ether"
	"cdna/internal/stats"
)

// NetfrontState is a front-end driver's checkpoint image.
type NetfrontState struct {
	NotifyQd bool
	TxIn     []ether.FrameState
	RxUp     []ether.FrameState
}

// VifState is one virtual interface's checkpoint image.
type VifState struct {
	TxQ, RxQ     []ether.FrameState
	NotifyQd     bool
	Visiting     bool
	TxOut, RxOut []ether.FrameState
	Front        NetfrontState
}

// State is a netback's checkpoint image: the bridge, the wire-side
// queue, and every vif (with its front end) in attach order.
type State struct {
	Bridge       ether.BridgeState
	WireIn       []ether.FrameState
	Vifs         []VifState
	PktsToWire   stats.CounterState
	PktsToGuests stats.CounterState
}

// State captures the netback and all attached vifs/netfronts.
func (nb *Netback) State(codec ether.PayloadCodec) (State, error) {
	s := State{
		Bridge:       nb.Bridge.State(),
		Vifs:         make([]VifState, len(nb.vifs)),
		PktsToWire:   nb.PktsToWire.State(),
		PktsToGuests: nb.PktsToGuests.State(),
	}
	var err error
	if s.WireIn, err = ether.CaptureFrameFIFO(&nb.wireIn, codec); err != nil {
		return State{}, err
	}
	for i, v := range nb.vifs {
		vs := VifState{NotifyQd: v.notifyQd, Visiting: v.visiting,
			Front: NetfrontState{NotifyQd: v.Front.notifyQd}}
		if vs.TxQ, err = ether.CaptureFrameFIFO(&v.txQ, codec); err != nil {
			return State{}, err
		}
		if vs.RxQ, err = ether.CaptureFrames(v.rxQ, codec); err != nil {
			return State{}, err
		}
		if vs.TxOut, err = ether.CaptureFrameFIFO(&v.txOut, codec); err != nil {
			return State{}, err
		}
		if vs.RxOut, err = ether.CaptureFrameFIFO(&v.rxOut, codec); err != nil {
			return State{}, err
		}
		if vs.Front.TxIn, err = ether.CaptureFrameFIFO(&v.Front.txIn, codec); err != nil {
			return State{}, err
		}
		if vs.Front.RxUp, err = ether.CaptureFrameFIFO(&v.Front.rxUp, codec); err != nil {
			return State{}, err
		}
		s.Vifs[i] = vs
	}
	return s, nil
}

// SetState restores the netback into a freshly built machine with the
// same vif roster.
func (nb *Netback) SetState(s State, codec ether.PayloadCodec) error {
	if len(s.Vifs) != len(nb.vifs) {
		return fmt.Errorf("backend: vif roster mismatch: snapshot has %d, machine has %d",
			len(s.Vifs), len(nb.vifs))
	}
	nb.Bridge.SetState(s.Bridge)
	if err := ether.RestoreFrameFIFO(&nb.wireIn, s.WireIn, codec); err != nil {
		return err
	}
	for i, vs := range s.Vifs {
		v := nb.vifs[i]
		var err error
		if err = ether.RestoreFrameFIFO(&v.txQ, vs.TxQ, codec); err != nil {
			return err
		}
		if v.rxQ, err = ether.RestoreFrames(vs.RxQ, codec); err != nil {
			return err
		}
		v.notifyQd = vs.NotifyQd
		v.visiting = vs.Visiting
		if err = ether.RestoreFrameFIFO(&v.txOut, vs.TxOut, codec); err != nil {
			return err
		}
		if err = ether.RestoreFrameFIFO(&v.rxOut, vs.RxOut, codec); err != nil {
			return err
		}
		v.Front.notifyQd = vs.Front.NotifyQd
		if err = ether.RestoreFrameFIFO(&v.Front.txIn, vs.Front.TxIn, codec); err != nil {
			return err
		}
		if err = ether.RestoreFrameFIFO(&v.Front.rxUp, vs.Front.RxUp, codec); err != nil {
			return err
		}
	}
	nb.PktsToWire.SetState(s.PktsToWire)
	nb.PktsToGuests.SetState(s.PktsToGuests)
	return nil
}
