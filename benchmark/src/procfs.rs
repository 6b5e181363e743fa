//! Memory and CPU of this process, read from `/proc/self`.

/// `USER_HZ`: the unit of the times in `/proc/<pid>/stat`. Linux fixes
/// it at 100 for user space whatever the kernel's own tick is.
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set (`VmHWM`) in MiB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system) of the process and of the children it has
/// waited for, from the text of `/proc/self/stat`. The command name in
/// field 2 may hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime, stime, cutime, cstime are
    // fields 14 to 17.
    let ticks: f64 = (11..15)
        .map(|i| f.get(i)?.parse::<f64>().ok())
        .sum::<Option<f64>>()?;
    Some(ticks / TICKS_PER_S)
}

pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_s(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  20000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // utime 150, stime 50, cutime 30, cstime 20 ticks = 2.5 s.
        let stat = "4242 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 150 50 30 20 20 0 1 0 99 1000 200";
        assert_eq!(parse_cpu_s(stat), Some(2.5));
        assert_eq!(parse_cpu_s("4242 (short) S 1 2"), None);
        assert_eq!(parse_cpu_s("no parens"), None);
    }

    #[test]
    fn this_process_has_memory_and_a_clock() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_s() >= 0.0);
    }
}
