"""Walsh spectra, plateau classification, and APN tests for quadratic
vectorial functions on GF(2^m) x GF(2^m)."""

from .errors import MemoryCapError, ParameterError
from .gf2m import Field, canonical_polynomial, field
from .vbf import (
    DifferentialSpectrum,
    SpectrumReport,
    VectorialFunction,
    WalshSpectrum,
    component_truth_table,
    differential_spectrum,
    fwht,
    linear_structures,
    plateau_level,
    spectrum_report,
    walsh_transform,
)
from .families import (
    Butterfly,
    Carlet11,
    CarletGeneral,
    LinearizedMap,
    Taniguchi,
    ZhouPott,
    build_function,
    butterfly_degenerate,
    carlet11_degenerate_triple,
    carlet11_is_apn,
    carlet_general_is_apn,
    taniguchi_is_apn,
    zhoupott_apn_predicate,
)
from .lincurves import (
    LinearizedBivariate,
    bezout_bound_check,
    derive_pair,
    infinity_point,
    kernel_dimension,
)
from .verifier import CLAIMS, Finding

__version__ = "0.1.0"

__all__ = [
    "Butterfly", "CLAIMS", "Carlet11", "CarletGeneral",
    "DifferentialSpectrum", "Field", "Finding", "LinearizedBivariate",
    "LinearizedMap", "MemoryCapError", "ParameterError", "SpectrumReport",
    "Taniguchi", "VectorialFunction", "WalshSpectrum", "ZhouPott",
    "bezout_bound_check", "build_function", "butterfly_degenerate",
    "canonical_polynomial", "carlet11_degenerate_triple", "carlet11_is_apn",
    "carlet_general_is_apn", "component_truth_table", "derive_pair",
    "differential_spectrum", "field", "fwht", "infinity_point",
    "kernel_dimension", "linear_structures", "plateau_level",
    "spectrum_report", "taniguchi_is_apn", "walsh_transform",
    "zhoupott_apn_predicate",
]
