//! Discovery→response correlation (Table 4, Appendix D.2): "We correlate
//! multicast and broadcast discoveries with their responses by inspecting
//! unicast inbound traffic to the devices that initiate the discoveries …
//! employing the same transport layer protocol and port number within a
//! short time period (empirically set as 3 seconds)".
//!
//! Output, grouped by device category: the mean number of discovery
//! protocols used (excluding ARP/DHCP/ICMP, which almost everything uses),
//! the mean number of those protocols that drew at least one response, and
//! the mean number of distinct devices that responded.
//!
//! The correlation itself runs online, frame by frame, in the stream
//! crate's engine (`iotlan_stream::engine`), which fills one
//! [`DeviceRecord`] per discovering device; this module turns those records
//! into the table.

use iotlan_devices::{Catalog, Category};
use std::collections::{BTreeMap, BTreeSet};

/// The correlation window (seconds).
pub const RESPONSE_WINDOW_SECS: f64 = 3.0;

/// Protocols excluded from Table 4 (used by nearly all devices).
pub const EXCLUDED_PROTOCOLS: &[&str] = &["ARP", "DHCP", "ICMP", "ICMPv6", "IPv4"];

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct CategoryResponseRow {
    pub category: String,
    pub devices: usize,
    pub mean_discovery_protocols: f64,
    pub mean_protocols_with_response: f64,
    pub mean_devices_responded: f64,
}

/// What the correlation found for one discovering device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceRecord {
    pub discovery_protocols: BTreeSet<String>,
    pub protocols_with_response: BTreeSet<String>,
    pub responders: BTreeSet<iotlan_wire::ethernet::EthernetAddress>,
}

/// Build the Table 4 rows from per-device records: group Echo / Google&Nest
/// / Apple / Tuya by vendor and the rest by category, then average per
/// group. Devices with no discovery activity contribute no row.
pub fn rows_from_records(
    records: &BTreeMap<iotlan_wire::ethernet::EthernetAddress, DeviceRecord>,
    catalog: &Catalog,
) -> Vec<CategoryResponseRow> {
    let group_of = |device: &iotlan_devices::DeviceConfig| -> String {
        match device.vendor.as_str() {
            "Amazon" if device.category == Category::VoiceAssistant => "Amazon Echo".into(),
            "Google" => "Google&Nest".into(),
            "Apple" => "Apple".into(),
            "Tuya" => "Tuya".into(),
            _ => match device.category {
                Category::MediaTv => "TVs".into(),
                Category::Surveillance => "Cameras".into(),
                Category::HomeAutomation => "Home Auto".into(),
                Category::HomeAppliance => "Appliances".into(),
                _ => "Other".into(),
            },
        }
    };

    let mut groups: BTreeMap<String, Vec<&DeviceRecord>> = BTreeMap::new();
    let empty = DeviceRecord::default();
    for device in &catalog.devices {
        let record = records.get(&device.mac).unwrap_or(&empty);
        if record.discovery_protocols.is_empty() {
            continue; // devices with no discovery activity don't enter rows
        }
        groups.entry(group_of(device)).or_default().push(record);
    }

    groups
        .into_iter()
        .map(|(category, recs)| {
            let n = recs.len() as f64;
            CategoryResponseRow {
                category,
                devices: recs.len(),
                mean_discovery_protocols: recs
                    .iter()
                    .map(|r| r.discovery_protocols.len() as f64)
                    .sum::<f64>()
                    / n,
                mean_protocols_with_response: recs
                    .iter()
                    .map(|r| r.protocols_with_response.len() as f64)
                    .sum::<f64>()
                    / n,
                mean_devices_responded: recs
                    .iter()
                    .map(|r| r.responders.len() as f64)
                    .sum::<f64>()
                    / n,
            }
        })
        .collect()
}

/// Render Table 4.
pub fn render(rows: &[CategoryResponseRow]) -> String {
    let mut out = String::from(
        "Device Group     #Disc.Protocols  #Proto w/Response  #Devices Responded\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>15.2}  {:>17.2}  {:>18.2}\n",
            row.category,
            row.mean_discovery_protocols,
            row.mean_protocols_with_response,
            row.mean_devices_responded
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shape() {
        let rows = vec![CategoryResponseRow {
            category: "Amazon Echo".into(),
            devices: 18,
            mean_discovery_protocols: 3.65,
            mean_protocols_with_response: 1.82,
            mean_devices_responded: 9.47,
        }];
        let rendered = render(&rows);
        assert!(rendered.contains("Amazon Echo"));
        assert!(rendered.contains("3.65"));
    }
}
