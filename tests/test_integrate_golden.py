"""Golden trajectories of integrate, pinned bit for bit.

Each case pins the SHA-256 of ``times.tobytes() + states.tobytes()``
with record on and with record off, and ``float.hex`` of the pole
estimate.  Together the cases cover all six systems and every way an
integration ends: the horizon, step underflow, a pole at t = 0, a pole
found by the magnitude test and one found by the step controller.  The
digests were made with the tableau-interpreting loop that the generated
straight-line stepper replaced, so they pin its floating-point operation
order: any change to the order of one addition moves them.
"""

import hashlib

import numpy as np
import pytest

from emaflow.spectral import IntegratorConfig, integrate
from emaflow.spectral.systems import SYSTEM_DIMS

SWIRL_BLOWUP = (0.0, 0.3, 0.0, 0.2, 0.1, 0.5)  # pole at t = 14.158
SWIRL_BOUNDED = (0.1, 0.01, 0.005, -0.01, 0.0, 0.3)
# The threshold out of reach: accepted steps shrink below min_step.
UNDERFLOW = {"blowup_magnitude": 1e200, "min_step": 1e-7}
# Steps small enough for a state past 1e154, whose square overflows.
STAGE_OVERFLOW = {"blowup_magnitude": 1e300, "min_step": 1e-170}

# (system, state, kappa, n, c0, config overrides on horizon 20, end path,
#  digest with record=True, digest with record=False, float.hex(t_est))
GOLDEN = [
    (
        "qnu", (0.5, 0.0), 1.0, 1, 0.0, {}, "horizon_reached",
        "1011eb3c09ab775d50a3d61bdfbb9ddd34501ea97b58e4df482459d717ecd7fd",
        "6a99b7cc7f91d1f1398eee6e34d59b385c62d40b4170ad8f70b98e8c2963d210",
        None,
    ),
    (
        "qnu", (0.5, -0.3), 3.7, 1, 0.0, {}, "horizon_reached",
        "77ebfdc16169aa0ff0c75a4c82b4ba51d1ae1e43a7efa89eedb6a2cad2fa4364",
        "9415915d0ffff32313383661bbeadf071ce6d941751f5f28ec2737aa5b1e8b77",
        None,
    ),
    (
        "qnu", (-1.2, 0.0), 1.0, 1, 0.0, UNDERFLOW, "step_underflow",
        "c51c839cd4e9e9c385e1db8dda4bb1dbcc47d4bf59059ee136bf8a60abc1a8e4",
        "5ebd58859874f1609490e4435fa90bb38427fc84066600eed07eebc756881b3b",
        None,
    ),
    (
        "qnu", (2e9, 0.0), 1.0, 1, 0.0, {}, "blowup_at_start",
        "921c068042b72945c01053fbf8b8b7f298ae32826ff1d411269dd0d8bf4c5513",
        "921c068042b72945c01053fbf8b8b7f298ae32826ff1d411269dd0d8bf4c5513",
        "0x0.0p+0",
    ),
    (
        "qnu", (-1.2, 0.0), 1.0, 1, 0.0, {}, "blowup_magnitude",
        "d65fe0c3195f14b902fe6ca9d2fb1623870cf47532ce90c230d286e57bbb2b3a",
        "7dc56b9f6e2cdaa0f84b83d5420398d7611607613ca81b99111b311b44215c61",
        "0x1.f86070d6d1844p-1",
    ),
    (
        "qnu", (-0.796351, 0.859264), 1.0, 1, 0.0,
        {"blowup_magnitude": 1e200, "min_step": 0.00457642212202053}, "blowup_controller",
        "3c78e18f8066e73718f726bf25a589e8d294c1de48c4950ace585231ff676379",
        "8b20fca0d1c268dff54b1ddbdc0b363829b54714af85d18f7f896e43fddfa4c6",
        "0x1.e2fac470a38b2p-1",
    ),
    (
        "pmu", (0.3, 0.2), 1.0, 1, 0.0, {}, "horizon_reached",
        "4ea6269e02384e84689a51841f8b0a1cadd7c92f9d36e8b426ecbf8a6579108a",
        "77a503e696f4078901d3e01f9951d89c04fb87f73288cdbddbf36eb8663f646f",
        None,
    ),
    (
        "pmu", (-1.3456, -0.0892), 1.0, 1, 0.0, UNDERFLOW, "step_underflow",
        "832e6a4a3d49d7d604b408faebd7872a16202198bcadea448682d26342b818e6",
        "f4456a8bff5296daf4f059f5de614d13f92e7f58a8f5275d8ecc9b2d29202b0b",
        None,
    ),
    (
        "pmu", (0.0, -2e9), 1.0, 1, 0.0, {}, "blowup_at_start",
        "a20c27b834580dae2c84af2d39870528df03e851dfc1fa85513b9be1cdc53d72",
        "a20c27b834580dae2c84af2d39870528df03e851dfc1fa85513b9be1cdc53d72",
        "0x0.0p+0",
    ),
    (
        "pmu", (-1.3456, -0.0892), 1.0, 1, 0.0, {}, "blowup_magnitude",
        "6b5f5e23ba783116fc5c230ec82bc2dc641b4f14e91e8cc73f21780cc76b8561",
        "51d858c0e3a7a1ba6b800dbbad28448c675b191760603500658d3758b4f0fe0f",
        "0x1.bf7ec41530bb0p-1",
    ),
    (
        "pmu", (-0.964607, 0.828638), 1.0, 1, 0.0,
        {"blowup_magnitude": 1e200, "min_step": 0.004318066260095716}, "blowup_controller",
        "831a318ee1f2a5b5335dbd3a7bbc337fed7ac8d11056633f0ae7a5a47cdaa1e3",
        "720d8c9151fee5a0d71d84901e58e6022a6d2702a86e0331ee861185cbe35e0c",
        "0x1.b04ac3315e904p-1",
    ),
    (
        "swirl", SWIRL_BOUNDED, 1.0, 1, 0.0, {}, "horizon_reached",
        "4af6c054757af2c937c96cc7b7982d3990d4b4f88f99c9813b7183aa567ad627",
        "905712648674b4ad6c7e28decddb8633e7232f7a63872e5a3a778772f330730c",
        None,
    ),
    (
        "swirl", SWIRL_BOUNDED, 3.7, 1, 0.0, {}, "horizon_reached",
        "e3ce8e53eb2dbd3941cd4dcf7d9b74678824bed98ccee07e53acac0f88648764",
        "d0b280ea8ce9b1709ac71ad2204478ad17fb0360b0092e99f2e078a8433c72de",
        None,
    ),
    (
        "swirl", SWIRL_BLOWUP, 1.0, 1, 0.0, dict(UNDERFLOW, horizon=25.0), "step_underflow",
        "b293b2dbdf3e122c799a578ee506707a85ba6f72cf3a60711901750236b51c77",
        "39cbebbd55de6afb61b69841d52520c0389e6972a6173908d717eba0c36b6440",
        None,
    ),
    (
        "swirl", (0.1, 0.01, 0.005, -0.01, 0.0, 3e9), 1.0, 1, 0.0, {}, "blowup_at_start",
        "3af0cf5c1b4977c73cb9be86e14d8a090a10881bc3e71030f710222cd519f597",
        "3af0cf5c1b4977c73cb9be86e14d8a090a10881bc3e71030f710222cd519f597",
        "0x0.0p+0",
    ),
    (
        "swirl", SWIRL_BLOWUP, 1.0, 1, 0.0, {"horizon": 25.0}, "blowup_magnitude",
        "a88e739c11810ee56449515b69f4c89c313818b6875e5253c4f5af1910663cdd",
        "7ed224c35c5dbae1d87f715a19a280702caaa27d5ca39c4efeef74764f253674",
        "0x1.c5116aeae69e9p+3",
    ),
    (
        "swirl", (-0.516526, -1.350822, -1.827861, 1.170988, -1.344568, 1.504174), 1.0, 1, 0.0,
        {"blowup_magnitude": 1e200, "min_step": 0.0008047679940391762}, "blowup_controller",
        "53cdef31fd509819133bdb776bf86ba630f8dbd691505a6103f37c6a5b90d818",
        "8e7f54e258d8fc08e50eabdb45796755c3d0a9d537f71fbbae68213947269838",
        "0x1.bb9a642ece98dp-2",
    ),
    (
        "swirl_q", (1.5668, 0.3407, -0.1148), 1.0, 1, 0.0, {}, "horizon_reached",
        "377c5f0fae9a8a7c90321ed2c53a575215b538d5a4fb9fbfd3ef705e6a1d3522",
        "1a97c2129520710919e0b0297868b95834d796f9a3cca5ebbf37b3a7635c006d",
        None,
    ),
    (
        "swirl_q", (-1.2, 0.0, 0.5), 1.0, 1, 0.0, {}, "horizon_reached",
        "35173136842e6443e82befdab5b962f9e275c83c3deb036fa3700c0d8b3321d6",
        "9699f680c13098c38c98e9381ea1ca9dd92a9f69bc685c84681b01dc896af246",
        None,
    ),
    (
        "swirl_q", (-1.2, 0.0, 0.5), 1.0, 1, 0.0, {"min_step": 0.5}, "step_underflow",
        "7b85c9b663ce28caa2b56bd29d3f2d294f5fae4a6d4c470c163648c3c95deb95",
        "7b85c9b663ce28caa2b56bd29d3f2d294f5fae4a6d4c470c163648c3c95deb95",
        None,
    ),
    (
        "swirl_q", (-1.2, 0.0, 5e9), 1.0, 1, 0.0, {}, "blowup_at_start",
        "0924d5398b0c83f11a51bc66d0cfe530d960a9779d2472254ac52b2cde7d2a75",
        "0924d5398b0c83f11a51bc66d0cfe530d960a9779d2472254ac52b2cde7d2a75",
        "0x0.0p+0",
    ),
    (
        "swirl_q", (-0.79487173966535, 1.9668549809015374, 0.5155376672414507), 1.0, 1, 0.0,
        {"blowup_magnitude": 5e220, "min_step": 0.005565743920242077}, "blowup_controller",
        "e658dccfecb1c9c05a80d48b8cde462f89e7e9cb2f5849cdc0522822e8e7389d",
        "272515e01230db72930e80dc7c711345023326fb78fa81990717e30f47ff5db3",
        "0x1.e0c8c53b9a171p+0",
    ),
    (
        "ep", (2.0, -0.5), 1.0, 2, 0.0, {}, "horizon_reached",
        "31ba85f2e61d84c165274a62e8ae88271251f0c0996d60404138d314a0791f59",
        "86e6a245a24d5dbd5b2d7211749cc627798679568080efc6c3ccef5aa4c11c3c",
        None,
    ),
    (
        "ep", (-3.0, 0.5), 1.0, 3, 0.0, UNDERFLOW, "step_underflow",
        "83fea7bdb49a364079c73a091d98fc814843a70f4581725203a498442fd58020",
        "da8e12aba72e1e1d4a4b453819218450b7791663964f6424bee534af4bdea5ca",
        None,
    ),
    (
        "ep", (3e9, 0.5), 1.0, 2, 0.0, {}, "blowup_at_start",
        "16c595aba6bd988627fee0a91f664d7621dd53939b84cf731d56d1e4e123c5ef",
        "16c595aba6bd988627fee0a91f664d7621dd53939b84cf731d56d1e4e123c5ef",
        "0x0.0p+0",
    ),
    (
        "ep", (1.8586, 0.7072), 1.0, 2, 0.0, {}, "blowup_magnitude",
        "7916bf3d833f66ef10d6c9f5c3b230a1763732911b7aa537be2302b41de2d00c",
        "a235237c45dc70adc6595c1ab63f3bf46308b5b30f88777946050874ea9b3c99",
        "0x1.dc730c857c9e7p+1",
    ),
    (
        "ep", (1.0, 0.5), 1.0, 3, 0.0, {}, "blowup_magnitude",
        "288b8a1d7d017b83b79ed62252ca69af6d8e54be39f33b2bc9abef956c6c4f7c",
        "2528c43ed93aa2c8c4a5777874cfb482a3910dd094db959ce0e04ed559e74e5d",
        "0x1.05431e9e7caebp+2",
    ),
    (
        "ep", (-2.824495, -1.626996), 1.0, 2, 0.0,
        {"blowup_magnitude": 1e300, "min_step": 0.004382685381005256}, "blowup_controller",
        "15ad33d38e8bfe4f4db9f5c8d2e082428c3fae9cfc8e37dce67019ef8c6ee6ef",
        "8ab87f0d2a0734eb58a8b44a138349ac48260ca90e859dd0c018b4b2ac8ce8a9",
        "0x1.109c9bced8f37p+0",
    ),
    (
        "wv", (0.5, 1.0), 1.0, 1, 0.0, {}, "horizon_reached",
        "c1e79f19ff6ab28aa23c0887e6a599366e7fe1a8cb55a58846d25e9887e0dc7f",
        "658ac647b79615963608093eb4d19356099288329ffdac28efc891436b92fb93",
        None,
    ),
    (
        "wv", (-1.637, -1.718), 1.0, 1, 0.3, {}, "horizon_reached",
        "98c52455eab4d5829bdbb3c2af29fc57cc679fe5eb501ecc810e3d0f6cc8600a",
        "956ceb6e096470810bb005e41cf447518ca6b5e2fd1134c552ea16aa35f202c8",
        None,
    ),
    (
        "wv", (0.2, 0.8), 0.6, 1, 0.3, {}, "horizon_reached",
        "dff9aa741faf5eec0d905cf37bcfbb0b9a6e385ec8a1d4cab8096992b69a9dc0",
        "8a6a478e1641a74ffbebc2d9d920612c10047867481b2a6a8d75488ad26e7fdb",
        None,
    ),
    (
        "wv", (0.5, 1.0), 1.0, 1, 0.3, {"min_step": 0.5}, "step_underflow",
        "9536689a4941c84ded438e9002674c39b2d5d1024a7b34232ee82e4cd4664931",
        "9536689a4941c84ded438e9002674c39b2d5d1024a7b34232ee82e4cd4664931",
        None,
    ),
    (
        "wv", (2e9, 1.0), 1.0, 1, 0.0, {}, "blowup_at_start",
        "ee33fff10c8abeda42ef8ea011c688e3b8973b870a0119096bac8b61bcdc3fb1",
        "ee33fff10c8abeda42ef8ea011c688e3b8973b870a0119096bac8b61bcdc3fb1",
        "0x0.0p+0",
    ),
    (
        "wv", (-1.0, 0.0), 1.0, 1, 0.3, {}, "blowup_at_start",
        "0e00910e27c43f706a62d0dac6695c67003ed72876c4d25af8df6950a92578f8",
        "0e00910e27c43f706a62d0dac6695c67003ed72876c4d25af8df6950a92578f8",
        "0x0.0p+0",
    ),
    (
        "wv", (-1.637112645519442, -1.7182878448427803), 1.0, 1, 0.3,
        {"blowup_magnitude": 3e238, "min_step": 0.004086533680735218}, "blowup_controller",
        "dfe99bb5befd50847c6feba3f25e6f6e9967639808b350482670a0b3628a1609",
        "1a1f528b082c3dc2436c821f79689b98203e03d8a6baa4297bfb7c778654f11d",
        "0x1.c1a5db2a8bc63p+0",
    ),

    # A stage overflows to inf: non-finite stages cut the step below min_step.
    (
        "qnu", (-1e140, 0.0), 1.0, 1, 0.0, STAGE_OVERFLOW, "blowup_controller",
        "70ed3a3db4e5a2359be8775072acf2239ca6164b26199aba84f4693423d77ab0",
        "1804cda68a2bec9cac6666fa62449611de5178cbf828971f9d9791d793120e5a",
        "0x1.e7c5f12986df6p-466",
    ),
    (
        "ep", (-1e140, 0.5), 1.0, 2, 0.0, STAGE_OVERFLOW, "blowup_controller",
        "b401910bdd9f8b33d422742d2d03960434c9b45064dd8d8adba942ca9bf41441",
        "bde9492d8c777070bd43fb04c9bf149b6d291f11c89ec35c5c1d654b46b83efd",
        "0x1.e7c5f13125227p-466",
    ),
    (
        "swirl", (0.0, -1e140, 0.0, 0.0, 0.0, 1.0), 1.0, 1, 0.0, STAGE_OVERFLOW,
        "blowup_controller",
        "148c79a171c5e3fd714a7b3c17dddcfb5c7ce5852b76c8c4ffc21ff202d969f6",
        "d51d44474384293e4ed1ecc5cebddc99a42b0df3aac8d04bf7bdef7ef6eb3143",
        "0x1.e7c5f1274cb91p-466",
    ),
]


def _path(trajectory, cfg):
    kind = trajectory.termination.kind
    if kind != "blowup_detected":
        return kind
    if trajectory.times.size == 1:
        return "blowup_at_start"
    if np.max(np.abs(trajectory.final_state)) > cfg.blowup_magnitude:
        return "blowup_magnitude"
    return "blowup_controller"


def test_golden_cases_cover_every_system_and_end_path():
    assert {case[0] for case in GOLDEN} == set(SYSTEM_DIMS)
    assert {case[6] for case in GOLDEN} == {
        "horizon_reached",
        "step_underflow",
        "blowup_at_start",
        "blowup_magnitude",
        "blowup_controller",
    }


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize(
    "case", GOLDEN, ids=[f"{c[0]}-{i}-{c[6]}" for i, c in enumerate(GOLDEN)]
)
def test_integrate_is_bitwise_golden(case, record):
    system, state, kappa, n, c0, overrides, path, full, ends, t_est = case
    cfg = IntegratorConfig(horizon=20.0).replace(**overrides)
    trajectory = integrate(system, state, kappa, n=n, c0=c0, config=cfg, record=record)
    assert _path(trajectory, cfg) == path
    digest = hashlib.sha256(trajectory.times.tobytes() + trajectory.states.tobytes())
    assert digest.hexdigest() == (full if record else ends)
    got = trajectory.termination.t_est
    assert (None if got is None else float.hex(got)) == t_est
