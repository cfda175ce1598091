"""Run-time thermal-management policies as a first-class subsystem.

The paper's headline use case (Section 7, Figure 6) is run-time thermal
management explored in closed loop; this package is the design-space
side of that claim.  It holds the policy protocol
(:class:`~repro.policy.base.ThermalPolicy`: ``bind`` / ``react`` /
``report``), the paper's own policies plus their natural extensions
(:mod:`repro.policy.builtin`), a family of exploration policies
(:mod:`repro.policy.exploration`) and the comparison pipeline that races
them over one shared RC structure (:mod:`repro.policy.comparison`).

:data:`~repro.policy.base.POLICIES` maps registry names to factories,
each registered beside its class, so every policy here is addressable
from a JSON ``PolicySpec`` and sweepable.  This package
deliberately imports nothing from ``repro.core`` or ``repro.scenario``
— policies are plain objects the framework calls, keeping the
dependency direction clean.
"""
