//go:build !linux

package transport

import (
	"time"

	"github.com/smartgrid/aria/internal/core"
)

// afterShort has no kernel timer to offer here; the caller uses the runtime's.
func afterShort(time.Duration, func()) (core.Cancel, bool) { return nil, false }
