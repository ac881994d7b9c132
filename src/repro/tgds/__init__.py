"""Tuple-generating dependencies, guardedness, ELI and ontologies."""

from repro.tgds.tgd import TGD, TGDError
from repro.tgds.ontology import Ontology
from repro.tgds.parser import parse_ontology, parse_tgd
from repro.tgds.eli import is_eli_tgd, is_eliq

__all__ = [
    "TGD",
    "TGDError",
    "Ontology",
    "is_eli_tgd",
    "is_eliq",
    "parse_ontology",
    "parse_tgd",
]
