//! Round-trip tests: serialized chips must parse back identically and
//! route to identical results.

use overcell_router::core::Flow;
use overcell_router::gen::random::small_random;
use overcell_router::gen::suite;
use overcell_router::io::{parse_chip, parse_routes, write_chip, write_routes};

#[test]
fn generated_chips_round_trip_exactly() {
    for chip in [small_random(6, 2, 3, 10, 11), suite::ami33_like()] {
        let text = write_chip(&chip.layout, &chip.placement);
        let (layout, placement) = parse_chip(&text).expect("parses");
        assert_eq!(layout.cells.len(), chip.layout.cells.len());
        assert_eq!(layout.nets.len(), chip.layout.nets.len());
        assert_eq!(layout.pins.len(), chip.layout.pins.len());
        assert_eq!(layout.die, chip.layout.die);
        assert_eq!(placement.rows.len(), chip.placement.rows.len());
        // Second serialization is byte-identical (canonical form).
        assert_eq!(write_chip(&layout, &placement), text);
    }
}

#[test]
fn routing_a_parsed_chip_matches_routing_the_original() {
    let chip = small_random(6, 2, 3, 10, 5);
    let text = write_chip(&chip.layout, &chip.placement);
    let (layout, placement) = parse_chip(&text).expect("parses");

    let original = Flow::default()
        .run(&chip.layout, &chip.placement)
        .expect("routes original");
    let reloaded = Flow::default()
        .run(&layout, &placement)
        .expect("routes reloaded");
    assert_eq!(original.metrics, reloaded.metrics);
}

#[test]
fn routed_geometry_round_trips() {
    let chip = small_random(6, 2, 3, 10, 7);
    let res = Flow::default()
        .run(&chip.layout, &chip.placement)
        .expect("routes");
    let text = write_routes(&res.layout, &res.design);
    let back = parse_routes(&res.layout, &text).expect("parses");
    assert_eq!(back.routed_count(), res.design.routed_count());
    for (net, route) in res.design.iter_routes() {
        let r2 = back.route(net).expect("route present");
        assert_eq!(r2.wire_length(), route.wire_length(), "net {net}");
        assert_eq!(r2.via_cuts(), route.via_cuts(), "net {net}");
    }
    assert_eq!(write_routes(&res.layout, &back), text);
}
