package ibp

import (
	"sync"
	"testing"
)

// TestTaggerReusesKeyedMACs: one Tagger, used from several goroutines at
// once, mints the tags a fresh HMAC per tag would and rejects a forgery,
// however its pooled HMAC states are reused.
func TestTaggerReusesKeyedMACs(t *testing.T) {
	secret := []byte("tagger-secret")
	tg := NewTagger(secret)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key, err := NewKey()
				if err != nil {
					t.Error(err)
					return
				}
				set := tg.MintSet("depot:6714", key)
				for _, ct := range []CapType{CapRead, CapWrite, CapManage} {
					c := set.Of(ct)
					if c != MintCap(secret, "depot:6714", key, ct) {
						t.Errorf("%s tag %s differs from MintCap's", ct, c.Tag)
					}
					if !tg.VerifyCap(c) || !VerifyCap(secret, c) {
						t.Errorf("%s capability does not verify", ct)
					}
					if VerifyCap([]byte("other-secret"), c) {
						t.Errorf("%s capability verifies under another secret", ct)
					}
					c.Type = CapManage
					if ct != CapManage && tg.VerifyCap(c) {
						t.Errorf("%s tag verifies as MANAGE", ct)
					}
				}
			}
		}()
	}
	wg.Wait()
}
