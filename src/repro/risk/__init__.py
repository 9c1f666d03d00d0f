"""Cybersecurity risk calculi: ISO/SAE 21434 TARA and IEC 62443 SL.

The paper's future-work core is "developing a forestry-adapted risk
assessment methodology, using ISO/SAE 21434 (in particular the continuous
risk assessment part), IEC 62443 (including the adaptation of the risk
assessment method to various domains) and IEC TS 63074 as guidance".  This
package encodes both calculi executably:

* :mod:`repro.risk.model` — assets, damage scenarios, threat scenarios,
  attack paths (the TARA work products);
* :mod:`repro.risk.stride` — systematic threat enumeration over an item
  model;
* :mod:`repro.risk.feasibility` — attack-potential feasibility rating
  (ISO 21434 Annex G / ISO 18045);
* :mod:`repro.risk.impact` — SFOP impact rating;
* :mod:`repro.risk.matrix` — the risk-value matrix;
* :mod:`repro.risk.tara` — the assembled TARA pipeline;
* :mod:`repro.risk.cal` — cybersecurity assurance level determination;
* :mod:`repro.risk.iec62443` — zones, conduits, SL-T/SL-A and gap analysis;
* :mod:`repro.risk.attack_graphs` — attack-path graph analysis (networkx;
  imported from its module, never loaded by the package);
* :mod:`repro.risk.treatment` — risk treatment and residual risk.
"""

from repro.risk.model import (
    Asset,
    AttackPath,
    AttackStep,
    CybersecurityProperty,
    DamageScenario,
    ItemModel,
    ThreatScenario,
)
from repro.risk.feasibility import AttackPotential, FeasibilityRating, rate_feasibility
from repro.risk.impact import ImpactCategory, ImpactRating, SfopImpact
from repro.risk.matrix import risk_value
from repro.risk.tara import Tara, TaraResult, ThreatAssessment
from repro.risk.cal import CaLevel, determine_cal
from repro.risk.iec62443 import SecurityLevel, Zone, Conduit, ZoneModel
from repro.risk.treatment import RiskTreatment, TreatmentDecision, TreatmentPlan

__all__ = [
    "Asset",
    "AttackPath",
    "AttackStep",
    "CybersecurityProperty",
    "DamageScenario",
    "ItemModel",
    "ThreatScenario",
    "AttackPotential",
    "FeasibilityRating",
    "rate_feasibility",
    "ImpactCategory",
    "ImpactRating",
    "SfopImpact",
    "risk_value",
    "Tara",
    "TaraResult",
    "ThreatAssessment",
    "CaLevel",
    "determine_cal",
    "SecurityLevel",
    "Zone",
    "Conduit",
    "ZoneModel",
    "RiskTreatment",
    "TreatmentDecision",
    "TreatmentPlan",
]
