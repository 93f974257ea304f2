import pathlib

import pytest

from levring.dynamics import build_model
from levring.model import DerivedParams, SystemConfig
from levring.steady_state import OperatingPoint

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"

KAPPA_SCALE = 941825.7836544266  # linewidth of the reference geometry


@pytest.fixture(scope="session")
def fig1_path():
    return str(CONFIG_DIR / "fig1.cfg")


@pytest.fixture(scope="session")
def fig2_path():
    return str(CONFIG_DIR / "fig2.cfg")


@pytest.fixture(scope="session")
def decoupled_path():
    return str(CONFIG_DIR / "decoupled.cfg")


def reference_config(**overrides) -> SystemConfig:
    """The room-temperature 50 nm sphere / 1 cm cavity workhorse geometry."""
    base = dict(
        sphere_radius=50e-9, density=2650.0, permittivity=2.3,
        wavelength=1064e-9, cavity_length=0.01, finesse=50000.0,
        input_power=1e-3, ring_radius=5e-3, ring_offset_c0=1064e-9,
        mcp_epsilon=1e-5, temperature=300.0,
        gas_pressure=1e-10 * 133.322368,
        ring_field=7.25e10, detuning_over_kappa=0.8)
    base.update(overrides)
    return SystemConfig(**base)


@pytest.fixture()
def ref_cfg():
    return reference_config()


def synthetic_derived(kappa=KAPPA_SCALE, gamma=None, Gamma=None) -> DerivedParams:
    """Minimal DerivedParams for drift/diffusion-level tests."""
    return DerivedParams(
        k=1.0, omega_c=1.0, V_s=1.0, V_c=1.0, waist=1.0, mass=1.0, g=1.0,
        kappa=kappa, E_drive=1.0, q_mcp=0.0, ring_charge=0.0,
        ring_radius=1.0, A_q=0.0, damping_at=None,
        gamma_ph=0.0, gamma_gas=0.0, gamma=gamma, Gamma_diff=Gamma)


def synthetic_op(omega_m, Omega_m, delta, G) -> OperatingPoint:
    return OperatingPoint(x_s=0.0, a_s=1.0, omega_m=omega_m, Omega_m=Omega_m,
                          delta_eff=delta, G=G, A_q=0.0, residual=0.0)


def synthetic_model(omega_m, Omega_m, delta, G, gamma, Gamma,
                    kappa=KAPPA_SCALE):
    derived = synthetic_derived(kappa=kappa, gamma=gamma, Gamma=Gamma)
    return build_model(synthetic_op(omega_m, Omega_m, delta, G), derived)


def random_model(rng, kappa=KAPPA_SCALE, stable=None, gamma_range=(0.01, 0.5),
                 delta_range=(-2.0, 2.0), G_range=(-1.2, 1.2),
                 Gamma_range=(0.1, 100.0), max_tries=500):
    """Random state-space model; stable=True/False filters by verdict."""
    for _ in range(max_tries):
        model = synthetic_model(
            omega_m=rng.uniform(0.2, 2.0) * kappa,
            Omega_m=rng.uniform(0.2, 3.0) * kappa,
            delta=rng.uniform(*delta_range) * kappa,
            G=rng.uniform(*G_range) * kappa,
            gamma=rng.uniform(*gamma_range) * kappa,
            Gamma=rng.uniform(*Gamma_range) * kappa)
        if stable is None or model.stable == stable:
            return model
    raise RuntimeError("could not draw a model with the requested verdict")
