//! Every catastrophic-repair plan of the paper-default deployments, pinned
//! bit for bit: 4 schemes × 6 repair methods × the plan's six fields, as
//! `f64::to_bits()` literals. A change to how a plan is dispatched or
//! assembled must leave every one of these bits as it is.

use mlec_sim::config::MlecDeployment;
use mlec_sim::repair::{plan_catastrophic_repair, RepairMethod};
use mlec_topology::MlecScheme;

/// `(scheme, method, [network_volume_tb, local_volume_tb,
/// cross_rack_traffic_tb, network_time_h, local_time_h,
/// local_read_extra_tb])`.
#[rustfmt::skip]
const PLANS: [(MlecScheme, RepairMethod, [u64; 6]); 24] = [
    (MlecScheme::CC, RepairMethod::All, [0x4079000000000000, 0x0000000000000000, 0x40b1300000000000, 0x407bcf1c71c71c72, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::CC, RepairMethod::Fco, [0x4054000000000000, 0x0000000000000000, 0x408b800000000000, 0x405658e38e38e38e, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::CC, RepairMethod::Hyb, [0x4054000000000000, 0x0000000000000000, 0x408b800000000000, 0x405658e38e38e38e, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::CC, RepairMethod::Min, [0x4034000000000000, 0x404e000000000000, 0x406b800000000000, 0x4036b8e38e38e38e, 0x40615c71c71c71c7, 0x0000000000000000]),
    (MlecScheme::CC, RepairMethod::Layer, [0x4034000000000000, 0x404e000000000000, 0x406b800000000000, 0x4036b8e38e38e38e, 0x40615c71c71c71c7, 0x4069000000000000]),
    (MlecScheme::CC, RepairMethod::Piggy, [0x4054000000000000, 0x0000000000000000, 0x4081300000000000, 0x404c071c71c71c72, 0x0000000000000000, 0x4072c00000000000]),
    (MlecScheme::CD, RepairMethod::All, [0x40a2c00000000000, 0x0000000000000000, 0x40d9c80000000000, 0x40a4d65555555555, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::CD, RepairMethod::Fco, [0x4054000000000000, 0x0000000000000000, 0x408b800000000000, 0x405658e38e38e38e, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::CD, RepairMethod::Hyb, [0x3fd21e6ba9fbb56e, 0x4053ede19456044b, 0x4008e9d409ba1977, 0x3fea10e67ae12be8, 0x405579b77ebdcb3f, 0x0000000000000000]),
    (MlecScheme::CD, RepairMethod::Min, [0x3fb21e6ba9fbb56e, 0x4053fb7865158113, 0x3fe8e9d409ba1977, 0x3fe284399eb84afa, 0x4055885c37f611b5, 0x0000000000000000]),
    (MlecScheme::CD, RepairMethod::Layer, [0x4053f2692f408338, 0x3fcb2da17ef99025, 0x408b6d50a0f8b46d, 0x405649ca348091cc, 0x3fcd4972708cecfb, 0x3fe6a606947aa2ca]),
    (MlecScheme::CD, RepairMethod::Piggy, [0x4054000000000000, 0x0000000000000000, 0x408b76a8507c5a36, 0x40565156e15cbaad, 0x0000000000000000, 0x3ff0fc84ef5bfa17]),
    (MlecScheme::DC, RepairMethod::All, [0x4079000000000000, 0x0000000000000000, 0x40b1300000000000, 0x40547ed097b425ed, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::DC, RepairMethod::Fco, [0x4054000000000000, 0x0000000000000000, 0x408b800000000000, 0x4030cbda12f684be, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::DC, RepairMethod::Hyb, [0x4054000000000000, 0x0000000000000000, 0x408b800000000000, 0x4030cbda12f684be, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::DC, RepairMethod::Min, [0x4034000000000000, 0x404e000000000000, 0x406b800000000000, 0x40124bda12f684be, 0x40615c71c71c71c7, 0x0000000000000000]),
    (MlecScheme::DC, RepairMethod::Layer, [0x4034000000000000, 0x404e000000000000, 0x406b800000000000, 0x40124bda12f684be, 0x40615c71c71c71c7, 0x4069000000000000]),
    (MlecScheme::DC, RepairMethod::Piggy, [0x4054000000000000, 0x0000000000000000, 0x4081300000000000, 0x40255ed097b425ed, 0x0000000000000000, 0x4072c00000000000]),
    (MlecScheme::DD, RepairMethod::All, [0x40a2c00000000000, 0x0000000000000000, 0x40d9c80000000000, 0x407e9638e38e38e3, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::DD, RepairMethod::Fco, [0x4054000000000000, 0x0000000000000000, 0x408b800000000000, 0x4030cbda12f684be, 0x0000000000000000, 0x0000000000000000]),
    (MlecScheme::DD, RepairMethod::Hyb, [0x3fd21e6ba9fbb56e, 0x4053ede19456044b, 0x4008e9d409ba1977, 0x3fe1d86e857614d9, 0x405579b77ebdcb3f, 0x0000000000000000]),
    (MlecScheme::DD, RepairMethod::Min, [0x3fb21e6ba9fbb56e, 0x4053fb7865158113, 0x3fe8e9d409ba1977, 0x3fe0761ba15d8536, 0x4055885c37f611b5, 0x0000000000000000]),
    (MlecScheme::DD, RepairMethod::Layer, [0x4053f2692f408338, 0x3fcb2da17ef99025, 0x408b6d50a0f8b46d, 0x4030c0c77bd5c041, 0x3fcd4972708cecfb, 0x3fe6a606947aa2ca]),
    (MlecScheme::DD, RepairMethod::Piggy, [0x4054000000000000, 0x0000000000000000, 0x408b76a8507c5a36, 0x4030c650c766227f, 0x0000000000000000, 0x3ff0fc84ef5bfa17]),
];

#[test]
fn every_plan_is_pinned_bit_for_bit() {
    for (scheme, method, bits) in PLANS {
        let p = plan_catastrophic_repair(&MlecDeployment::paper_default(scheme), method);
        let got = [
            p.network_volume_tb,
            p.local_volume_tb,
            p.cross_rack_traffic_tb,
            p.network_time_h,
            p.local_time_h,
            p.local_read_extra_tb,
        ]
        .map(f64::to_bits);
        assert_eq!(got, bits, "{scheme} {method}");
    }
    // The table covers every scheme × method pair exactly once.
    for scheme in MlecScheme::ALL {
        for method in RepairMethod::EXTENDED {
            let n = PLANS
                .iter()
                .filter(|(s, m, _)| *s == scheme && *m == method)
                .count();
            assert_eq!(n, 1, "{scheme} {method}");
        }
    }
}
