// Fixture for the hotalloc analyzer: allocation on //lint:hotpath functions
// is flagged — directly, through module calls, and for assumed-allocating
// stdlib calls — while error paths, value literals, and non-escaping
// closures stay clean.
package fixture

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

type counter struct{ n int64 }

// allocHelper allocates, so hot callers inherit the taint.
func allocHelper() []int {
	return make([]int, 8)
}

// cleanHelper does arithmetic only.
func cleanHelper(x uint64) int {
	return bits.OnesCount64(x)
}

// hotDirect demonstrates direct allocation sites.
//
//lint:hotpath fixture
func hotDirect(c *counter, s string) {
	_ = make([]int, 4)         // want "builtin make"
	_ = new(counter)           // want "builtin new"
	_ = &counter{}             // want "escaping composite literal"
	_ = s + "!"                // want "string concatenation"
	_ = []byte(s)              // want "string-to-slice conversion"
	_ = fmt.Sprintf("%d", c.n) // want "fmt.Sprintf"
	c.n++
}

// hotTransitive inherits the allocation through a module call.
//
//lint:hotpath fixture
func hotTransitive() int {
	xs := allocHelper() // want "call to fixture.allocHelper, which may allocate"
	return len(xs)
}

// hotClean exercises every exemption at once: value literals, non-escaping
// closures, clean module and stdlib calls, and error-path allocation.
//
//lint:hotpath fixture
func hotClean(c *counter, x uint64) error {
	v := counter{n: 1} // value literal: stack
	defer func() {     // deferred literal called in-frame: stack
		c.n = v.n
	}()
	func() { c.n++ }() // immediately invoked literal: stack
	_ = cleanHelper(x)
	if c.n < 0 {
		return fmt.Errorf("negative count %d", c.n) // error path: exempt
	}
	if err := validate(c); err != nil {
		return err
	}
	return nil
}

func validate(c *counter) error {
	if c.n > 1<<40 {
		return errors.New("overflow")
	}
	return nil
}

// hotLocked: taking and releasing a mutex is clean, the rest of sync is not.
//
//lint:hotpath fixture
func hotLocked(mu *sync.Mutex, pool *sync.Pool) {
	if mu.TryLock() {
		mu.Unlock()
	}
	mu.Lock()
	mu.Unlock()
	_ = pool.Get() // want "sync.Pool.Get"
}

// notHot allocates freely: no directive, no findings.
func notHot() []int {
	return append(make([]int, 0, 4), 1, 2, 3)
}
