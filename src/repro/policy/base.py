"""The thermal-policy protocol: lifecycle hooks every policy implements.

A policy is the SW side of the paper's Section 7 closed loop: every
sampling window the framework feeds it the freshly updated sensor bank
and the VPCM, and the policy actuates the virtual clocks.  Three
lifecycle hooks structure that contract:

* :meth:`ThermalPolicy.bind` — called once when an
  :class:`~repro.core.framework.EmulationFramework` wires the policy,
  before the first window.  Policies validate themselves against the
  real sensor bank / floorplan here (fail fast on typo'd component
  names) and may derive defaults from the framework (e.g.
  :class:`~repro.policy.exploration.PerDomainPolicy` discovers the core
  components from the floorplan).
* :meth:`ThermalPolicy.react` — the per-window reaction: inspect
  sensors, actuate the VPCM, return the chosen system frequency.
* :meth:`ThermalPolicy.report` — per-policy statistics (switch counts,
  time-at-level, integral error, ...) exported into
  ``RunReport.extras["policy"]`` at the end of a run, so policy sweeps
  can be compared from serialized results alone.

Policies are plain objects — no framework import — so the module stays
importable from the lowest layer (:mod:`repro.core.framework` only
needs :class:`NoManagementPolicy`'s base).  Each policy registers in
:data:`POLICIES` where it is defined, which is what makes it
addressable from a JSON ``PolicySpec`` and sweepable; importing
:mod:`repro.policy.builtin` registers every built-in, the exploration
family included.
"""

from repro.util.registry import Registry

#: Registry name -> policy factory taking the ``PolicySpec`` params.
POLICIES = Registry("policy")


class ThermalPolicy:
    """Base class: reacts to sensor state by actuating the VPCM."""

    name = "base"

    def bind(self, framework):
        """Validate against (and take defaults from) the wired framework.

        Called once by :class:`~repro.core.framework.EmulationFramework`
        after sensors are built and before the first window.  The default
        is a no-op; override to fail fast on configurations the policy
        cannot manage.  Returns ``self`` so calls chain.
        """
        return self

    def react(self, sensor_bank, vpcm, time_s):
        """Inspect sensors and (possibly) act; returns the chosen
        system frequency in Hz."""
        raise NotImplementedError

    def core_frequencies(self):
        """Per-core frequency overrides, or None for global clocking."""
        return None

    def report(self):
        """JSON-compatible per-policy statistics for ``RunReport.extras``."""
        return {"name": self.name}


def _missing_sensors(components, sensor_bank):
    """Names from ``components`` with no sensor in the bank, sorted."""
    return sorted(set(components) - set(sensor_bank.sensors))


def require_sensors(policy, components, sensor_bank):
    """Fail fast when ``components`` lack sensors in ``sensor_bank``.

    The bind-time guard per-component policies share: a typo'd component
    map must abort the launch with the missing names rather than run
    effectively unmanaged.
    """
    missing = _missing_sensors(components, sensor_bank)
    if missing:
        raise ValueError(
            f"policy {policy.name!r}: no temperature sensor for "
            f"{', '.join(missing)} (monitored: "
            f"{', '.join(sorted(sensor_bank.sensors)) or 'none'})"
        )
