"""Zone-partitioned object lifecycle runtime.

Objects live in one of three fixed zones (red, green, blue) chosen at
allocation time from observed behavior. Liveness is tracked in a 3-bit
checkpoint table, one byte per entry, that the sweep decides from the state
bits alone; expiry never moves an object, it reclaims the slot in place and
any replacement is a fresh allocation in the target zone. A partitioned
scheduler fans kernels out over deterministic index ranges so results stay
bit-identical at any worker count.

Import the modules themselves (zonegc.config, zonegc.zones, ...); the
package namespace re-exports nothing.
"""

__version__ = "0.1.0"
