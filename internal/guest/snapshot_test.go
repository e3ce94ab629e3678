package guest

import (
	"reflect"
	"testing"

	"cdna/internal/ether"
	"cdna/internal/sim"
)

// TestNativeDriverSnapshotWrappedSlots checkpoints the conventional
// driver while its in-flight transmit window straddles a ring wrap (free-
// running indices past RingEntries, slots running from the top of the
// table back to 0) and restores the image into a freshly built driver:
// the image must round-trip, and every in-flight ring index must look up
// the same frame.
func TestNativeDriverSnapshotWrappedSlots(t *testing.T) {
	r := newNativeRig(t)
	const n = 2*RingEntries + 300
	for i := 0; i < n; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 100 + i%1400, Src: r.drv.MAC()})
	}
	d := r.drv
	wrapped := func() bool {
		cons, prod := d.lastTxCons, d.tx.Prod()
		return prod > RingEntries && prod-cons > 1 && slot(cons) > slot(prod-1)
	}
	for !wrapped() {
		if r.eng.Now() > sim.Second {
			t.Fatalf("in-flight window never straddled a wrap (cons %d prod %d)", d.lastTxCons, d.tx.Prod())
		}
		r.eng.Run(r.eng.Now() + sim.Microsecond)
	}
	t.Logf("in flight: ring indices [%d, %d) at %v", d.lastTxCons, d.tx.Prod(), r.eng.Now())
	img, err := d.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(d.tx.Prod() - d.lastTxCons); len(img.Inflight) != want {
		t.Fatalf("image holds %d in-flight frames, ring has %d", len(img.Inflight), want)
	}

	fresh := newNativeRig(t)
	if err := fresh.drv.SetState(img, nil); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.drv.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatalf("state round-trip differs:\n got %+v\nwant %+v", got, img)
	}
	for idx := d.lastTxCons; idx != d.tx.Prod(); idx++ {
		a, b := d.lookupTx(idx), fresh.drv.lookupTx(idx)
		if a == nil || b == nil || a.Size != b.Size {
			t.Fatalf("ring index %d: donor frame %v, restored %v", idx, a, b)
		}
	}

	img.TxBufs = img.TxBufs[:RingEntries/2]
	if err := fresh.drv.SetState(img, nil); err == nil {
		t.Fatal("short slot table accepted")
	}
}
